// Tests for Flashvisor's range lock (a std::multimap keyed by first group,
// queried over [first - longest held span, last]): reader/writer semantics
// over ranges, FIFO fairness, asynchronous grants, ranges far longer than the
// rest, and randomized comparisons against a brute-force oracle.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/core/range_lock.h"
#include "src/sim/rng.h"

namespace fabacus {
namespace {

// Brute-force oracle: the same semantics over a flat list of held ranges.
class OracleLock {
 public:
  bool Conflicts(std::uint64_t first, std::uint64_t last, LockMode mode) const {
    for (const auto& [id, r] : held_) {
      const bool overlap = r.first <= last && first <= r.last;
      const bool incompatible = mode == LockMode::kWrite || r.mode == LockMode::kWrite;
      if (overlap && incompatible) {
        return true;
      }
    }
    return false;
  }
  void Add(std::uint64_t id, std::uint64_t first, std::uint64_t last, LockMode mode) {
    held_[id] = Range{first, last, mode};
  }
  void Remove(std::uint64_t id) { held_.erase(id); }
  std::size_t size() const { return held_.size(); }

 private:
  struct Range {
    std::uint64_t first;
    std::uint64_t last;
    LockMode mode;
  };
  std::map<std::uint64_t, Range> held_;
};

TEST(RangeLock, ReadersShareOverlappingRanges) {
  RangeLock lock;
  RangeLock::LockId a = 0;
  RangeLock::LockId b = 0;
  EXPECT_TRUE(lock.TryAcquire(0, 100, LockMode::kRead, &a));
  EXPECT_TRUE(lock.TryAcquire(50, 150, LockMode::kRead, &b));
  EXPECT_EQ(lock.held_count(), 2u);
  lock.Release(a);
  lock.Release(b);
}

TEST(RangeLock, WriterExcludesOverlappingReader) {
  RangeLock lock;
  RangeLock::LockId r = 0;
  RangeLock::LockId w = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 100, LockMode::kRead, &r));
  EXPECT_FALSE(lock.TryAcquire(100, 200, LockMode::kWrite, &w));  // overlap at 100
  EXPECT_TRUE(lock.TryAcquire(101, 200, LockMode::kWrite, &w));   // disjoint
  lock.Release(r);
  lock.Release(w);
}

TEST(RangeLock, ReaderBlocksOnOverlappingWriter) {
  RangeLock lock;
  RangeLock::LockId w = 0;
  ASSERT_TRUE(lock.TryAcquire(10, 20, LockMode::kWrite, &w));
  RangeLock::LockId r = 0;
  EXPECT_FALSE(lock.TryAcquire(15, 30, LockMode::kRead, &r));
}

TEST(RangeLock, AsyncGrantFiresOnRelease) {
  RangeLock lock;
  RangeLock::LockId w = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 100, LockMode::kWrite, &w));
  bool granted = false;
  RangeLock::LockId waiter_id = 0;
  lock.Acquire(50, 60, LockMode::kRead, [&](RangeLock::LockId id) {
    granted = true;
    waiter_id = id;
  });
  EXPECT_FALSE(granted);
  EXPECT_EQ(lock.waiter_count(), 1u);
  lock.Release(w);
  EXPECT_TRUE(granted);
  EXPECT_EQ(lock.waiter_count(), 0u);
  lock.Release(waiter_id);
}

TEST(RangeLock, FifoFairnessPreventsWriterStarvation) {
  RangeLock lock;
  RangeLock::LockId r1 = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 100, LockMode::kRead, &r1));
  // A writer queues first; a later reader overlapping the writer must NOT
  // jump the queue even though it is compatible with the held read lock.
  bool writer_granted = false;
  RangeLock::LockId writer_id = 0;
  lock.Acquire(0, 100, LockMode::kWrite, [&](RangeLock::LockId id) {
    writer_granted = true;
    writer_id = id;
  });
  bool reader2_granted = false;
  RangeLock::LockId reader2_id = 0;
  lock.Acquire(0, 100, LockMode::kRead, [&](RangeLock::LockId id) {
    reader2_granted = true;
    reader2_id = id;
  });
  EXPECT_FALSE(writer_granted);
  EXPECT_FALSE(reader2_granted);  // held back behind the earlier writer
  lock.Release(r1);
  EXPECT_TRUE(writer_granted);
  EXPECT_FALSE(reader2_granted);
  lock.Release(writer_id);
  EXPECT_TRUE(reader2_granted);
  lock.Release(reader2_id);
}

TEST(RangeLock, ManyDisjointRangesAllGrantImmediately) {
  RangeLock lock;
  std::vector<RangeLock::LockId> ids;
  for (int i = 0; i < 1000; ++i) {
    RangeLock::LockId id = 0;
    ASSERT_TRUE(lock.TryAcquire(static_cast<std::uint64_t>(i) * 10,
                                static_cast<std::uint64_t>(i) * 10 + 9, LockMode::kWrite, &id));
    ids.push_back(id);
  }
  for (RangeLock::LockId id : ids) {
    lock.Release(id);
  }
  EXPECT_EQ(lock.held_count(), 0u);
}

// One held range far longer than any other must still block a request at its
// far end: the overlap query has to reach back by the longest held span.
TEST(RangeLock, LongHeldRangeBlocksWriteAtItsFarEnd) {
  RangeLock lock;
  RangeLock::LockId read = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 1000000, LockMode::kRead, &read));
  RangeLock::LockId other = 0;
  ASSERT_TRUE(lock.TryAcquire(2000000, 2000003, LockMode::kRead, &other));
  EXPECT_TRUE(lock.Conflicts(999999, 999999, LockMode::kWrite));
  bool granted = false;
  RangeLock::LockId write = 0;
  lock.Acquire(999999, 999999, LockMode::kWrite, [&](RangeLock::LockId id) {
    granted = true;
    write = id;
  });
  EXPECT_FALSE(granted);
  EXPECT_EQ(lock.waiter_count(), 1u);
  lock.Release(read);
  EXPECT_TRUE(granted);
  EXPECT_EQ(lock.waiter_count(), 0u);
  lock.Release(write);
  lock.Release(other);
  EXPECT_EQ(lock.held_count(), 0u);
}

// Held reads come and go in a seeded interleaving; after every step a write
// probe drawn from a second stream must see exactly the oracle's conflicts.
TEST(RangeLock, InterleavedInsertDeleteMatchesOracle) {
  RangeLock lock;
  OracleLock oracle;
  Rng rng(99);
  Rng probe(100);
  std::vector<RangeLock::LockId> held;
  for (int step = 0; step < 3000; ++step) {
    if (held.empty() || rng.NextDouble() < 0.6) {
      const std::uint64_t first = rng.NextBelow(100000);
      const std::uint64_t last = first + rng.NextBelow(300);
      RangeLock::LockId id = 0;
      if (lock.TryAcquire(first, last, LockMode::kRead, &id)) {
        oracle.Add(id, first, last, LockMode::kRead);
        held.push_back(id);
      }
    } else {
      const std::size_t k = rng.NextBelow(held.size());
      oracle.Remove(held[k]);
      lock.Release(held[k]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    ASSERT_EQ(lock.held_count(), oracle.size()) << "at step " << step;
    const std::uint64_t first = probe.NextBelow(100000);
    const std::uint64_t last = first + probe.NextBelow(4);
    ASSERT_EQ(lock.Conflicts(first, last, LockMode::kWrite),
              oracle.Conflicts(first, last, LockMode::kWrite))
        << "at step " << step << " probe [" << first << "," << last << "]";
  }
  for (RangeLock::LockId id : held) {
    lock.Release(id);
  }
  EXPECT_EQ(lock.held_count(), 0u);
}

class RangeLockPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeLockPropertyTest, MatchesBruteForceOracle) {
  RangeLock lock;
  OracleLock oracle;
  Rng rng(GetParam());
  std::vector<RangeLock::LockId> held;
  for (int step = 0; step < 4000; ++step) {
    const bool release = !held.empty() && rng.NextDouble() < 0.45;
    if (release) {
      const std::size_t k = rng.NextBelow(held.size());
      oracle.Remove(held[k]);
      lock.Release(held[k]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      // One range in ten spans thousands of groups, like a kernel's whole
      // data section mapped under one lock among short I/O ranges.
      const std::uint64_t first = rng.NextBelow(5000);
      const std::uint64_t span =
          rng.NextDouble() < 0.1 ? 1000 + rng.NextBelow(4000) : rng.NextBelow(200);
      const std::uint64_t last = first + span;
      const LockMode mode = rng.NextDouble() < 0.5 ? LockMode::kRead : LockMode::kWrite;
      const bool oracle_conflict = oracle.Conflicts(first, last, mode);
      ASSERT_EQ(lock.Conflicts(first, last, mode), oracle_conflict)
          << "step " << step << " range [" << first << "," << last << "]";
      RangeLock::LockId id = 0;
      const bool acquired = lock.TryAcquire(first, last, mode, &id);
      ASSERT_EQ(acquired, !oracle_conflict);
      if (acquired) {
        oracle.Add(id, first, last, mode);
        held.push_back(id);
      }
    }
    ASSERT_EQ(lock.held_count(), oracle.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeLockPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- Overlapping-range fairness ordering (docs/QOS.md coverage gap) ---------

// A chain of transitively overlapping waiters drains strictly FIFO: a waiter
// that conflicts only with an *earlier waiter* (not with any holder) still
// may not jump the queue.
TEST(RangeLockFairness, TransitiveOverlapChainDrainsFifo) {
  RangeLock lock;
  RangeLock::LockId held = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 10, LockMode::kWrite, &held));
  std::vector<int> grant_order;
  RangeLock::LockId b_id = 0;
  RangeLock::LockId c_id = 0;
  // B overlaps the holder; C overlaps only B.
  lock.Acquire(5, 15, LockMode::kWrite, [&](RangeLock::LockId id) {
    grant_order.push_back(1);
    b_id = id;
  });
  lock.Acquire(12, 20, LockMode::kWrite, [&](RangeLock::LockId id) {
    grant_order.push_back(2);
    c_id = id;
  });
  EXPECT_TRUE(grant_order.empty());
  EXPECT_EQ(lock.waiter_count(), 2u);
  lock.Release(held);
  // B granted; C conflicts with the now-held B and keeps waiting.
  ASSERT_EQ(grant_order.size(), 1u);
  EXPECT_EQ(grant_order[0], 1);
  lock.Release(b_id);
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[1], 2);
  lock.Release(c_id);
  EXPECT_EQ(lock.held_count(), 0u);
}

// A request disjoint from every holder AND every queued waiter is granted
// immediately — the FIFO queue holds back only conflicting requests.
TEST(RangeLockFairness, DisjointRequestBypassesUnrelatedWaiters) {
  RangeLock lock;
  RangeLock::LockId held = 0;
  ASSERT_TRUE(lock.TryAcquire(0, 10, LockMode::kWrite, &held));
  bool waiter_granted = false;
  lock.Acquire(0, 10, LockMode::kWrite,
               [&](RangeLock::LockId) { waiter_granted = true; });
  ASSERT_FALSE(waiter_granted);
  bool disjoint_granted = false;
  RangeLock::LockId disjoint_id = 0;
  lock.Acquire(100, 110, LockMode::kWrite, [&](RangeLock::LockId id) {
    disjoint_granted = true;
    disjoint_id = id;
  });
  EXPECT_TRUE(disjoint_granted) << "disjoint range must not queue behind strangers";
  EXPECT_FALSE(waiter_granted);
  lock.Release(disjoint_id);
  lock.Release(held);
  EXPECT_TRUE(waiter_granted);
}

// The QoS contention observer fires once per (waiter, distinct blocking
// tenant), holders and earlier conflicting waiters alike, tenant-sorted.
TEST(RangeLockFairness, ContentionObserverReportsDistinctSortedBlockers) {
  RangeLock lock;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> events;
  lock.set_contention_observer([&](std::uint16_t waiter, std::uint16_t holder) {
    events.emplace_back(waiter, holder);
  });
  RangeLock::LockId a = 0;
  RangeLock::LockId b = 0;
  // Tenant 7 and tenant 3 hold adjacent read ranges; tenant 3 also holds a
  // second range (dedup check).
  ASSERT_TRUE(lock.TryAcquire(0, 10, LockMode::kRead, &a, /*tenant=*/7));
  ASSERT_TRUE(lock.TryAcquire(11, 20, LockMode::kRead, &b, /*tenant=*/3));
  RangeLock::LockId b2 = 0;
  ASSERT_TRUE(lock.TryAcquire(21, 30, LockMode::kRead, &b2, /*tenant=*/3));
  // Tenant 5's write overlaps all three held ranges: one event per distinct
  // blocking tenant, ascending tenant order.
  lock.Acquire(0, 30, LockMode::kWrite, [](RangeLock::LockId) {}, /*tenant=*/5);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<std::uint16_t, std::uint16_t>{5, 3}));
  EXPECT_EQ(events[1], (std::pair<std::uint16_t, std::uint16_t>{5, 7}));
  // A later waiter overlapping only the queued tenant-5 writer blames 5.
  events.clear();
  lock.Acquire(25, 40, LockMode::kWrite, [](RangeLock::LockId) {}, /*tenant=*/9);
  ASSERT_EQ(events.size(), 2u);  // blocked by holder 3 (range b2) and waiter 5
  EXPECT_EQ(events[0], (std::pair<std::uint16_t, std::uint16_t>{9, 3}));
  EXPECT_EQ(events[1], (std::pair<std::uint16_t, std::uint16_t>{9, 5}));
  // Immediate grants never fire the observer.
  events.clear();
  RangeLock::LockId free_id = 0;
  ASSERT_TRUE(lock.TryAcquire(100, 110, LockMode::kWrite, &free_id, /*tenant=*/2));
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace fabacus

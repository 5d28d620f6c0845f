// Unit tests for the event core: EventFn storage classes, the calendar
// queue's ordering/daemon/Clear contract, and a randomized check of its pop
// order against an ordered-set oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace fabacus {
namespace {

// The storage-class contract the engine's performance rests on: hot-path
// lambdas (pointers, ids, ticks) must stay inline; fat, non-trivial or
// over-aligned captures go to the heap.
struct FourWords {
  void* p[4];
};
struct FiveWords {
  void* p[5];
};
static_assert(EventFn::kFitsInline<decltype([] {})>);
static_assert(EventFn::kFitsInline<void (*)()>);
namespace inline_checks {
inline auto four = [x = FourWords{}] { (void)x; };
inline auto five = [x = FiveWords{}] { (void)x; };
static_assert(EventFn::kFitsInline<decltype(four)>);
static_assert(!EventFn::kFitsInline<decltype(five)>);
// std::function captures are non-trivially-copyable -> never inline.
inline auto fn_capture = [f = std::function<void()>()] { (void)f; };
static_assert(!EventFn::kFitsInline<decltype(fn_capture)>);
}  // namespace inline_checks

TEST(EventFn, InvokesInlineCallable) {
  int hits = 0;
  int* p = &hits;
  EventFn fn([p] { ++*p; });
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersOwnership) {
  int hits = 0;
  int* p = &hits;
  EventFn a([p] { ++*p; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

// Counts how often the one live copy of a capture is destroyed. Moving hands
// the count on, so a moved-from shell's destructor adds nothing.
class DtorCount {
 public:
  explicit DtorCount(int* dtors) : dtors_(dtors) {}
  DtorCount(DtorCount&& other) noexcept : dtors_(std::exchange(other.dtors_, nullptr)) {}
  DtorCount(const DtorCount&) = delete;
  DtorCount& operator=(const DtorCount&) = delete;
  DtorCount& operator=(DtorCount&&) = delete;
  ~DtorCount() {
    if (dtors_ != nullptr) {
      ++*dtors_;
    }
  }

 private:
  int* dtors_;
};

TEST(EventFn, OversizedCallableRunsAndIsDestroyedOnce) {
  int hits = 0;
  int dtors = 0;
  {
    FiveWords fat{};
    int* p = &hits;
    auto f = [fat, count = DtorCount(&dtors), p] {
      (void)fat;
      ++*p;
    };
    static_assert(sizeof(f) > EventFn::kInlineBytes);
    EventFn a(std::move(f));
    a();
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EventFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 3);
    EXPECT_EQ(dtors, 0) << "the capture died while an EventFn still held it";
  }
  EXPECT_EQ(dtors, 1);
}

TEST(EventFn, NonTrivialCaptureIsDestroyedOnceByItsLastHolder) {
  int hits = 0;
  int dtors = 0;
  {
    std::function<void()> inner = [&hits] { ++hits; };
    EventFn fn([inner, count = DtorCount(&dtors)] { inner(); });
    fn();
    EventFn moved(std::move(fn));
    moved();
    EXPECT_EQ(dtors, 0);
    // Assigning over a heap-backed EventFn destroys the capture it held.
    moved = EventFn([] {});
    EXPECT_EQ(dtors, 1);
  }
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(dtors, 1);
}

// An over-aligned capture never fits inline, and the heap copy must still
// honour its alignment: reading a misaligned capture is undefined behaviour.
struct alignas(64) CacheLine {
  unsigned char bytes[64];
};

TEST(EventFn, OverAlignedCaptureKeepsItsAlignment) {
  int misaligned = 0;
  int* bad = &misaligned;
  std::vector<EventFn> fns;
  for (int i = 0; i < 64; ++i) {
    CacheLine line{};
    auto f = [line, bad] {
      // Read back through a volatile: the optimizer would otherwise fold the
      // check away from the type's declared alignment.
      const volatile std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(&line);
      if (addr % alignof(CacheLine) != 0) {
        ++*bad;
      }
    };
    static_assert(!EventFn::kFitsInline<decltype(f)>);
    fns.emplace_back(std::move(f));
  }
  for (EventFn& fn : fns) {
    fn();
  }
  EXPECT_EQ(misaligned, 0);
}

TEST(CalendarQueue, SameTickFiresInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    q.Push(1000, [&order, i] { order.push_back(i); });
  }
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
    EXPECT_EQ(when, 1000u);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(CalendarQueue, DaemonsDoNotKeepQueueAlive) {
  EventQueue q;
  q.Push(10, [] {}, /*daemon=*/true);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  q.Push(20, [] {});
  EXPECT_FALSE(q.OnlyDaemonsLeft());
  Tick when = 0;
  q.Pop(&when)();  // the 10-tick daemon fires first (time order)
  EXPECT_EQ(when, 10u);
  q.Pop(&when)();
  EXPECT_EQ(when, 20u);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ClearDropsEverythingAndStaysUsable) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.Push(static_cast<Tick>(i) * 77, [&fired] { ++fired; }, /*daemon=*/(i % 3) == 0);
  }
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.OnlyDaemonsLeft());
  EXPECT_EQ(fired, 0);
  // Still functional after Clear, including times before the old cursor.
  q.Push(5, [&fired] { ++fired; });
  Tick when = 0;
  q.Pop(&when)();
  EXPECT_EQ(when, 5u);
  EXPECT_EQ(fired, 1);
}

TEST(CalendarQueue, CursorRewindsForEarlierPushAfterDrain) {
  EventQueue q;
  Tick when = 0;
  // Drain an event far in the future, parking the cursor there...
  q.Push(50 * kMs, [] {});
  q.Pop(&when)();
  EXPECT_EQ(when, 50 * kMs);
  // ...then accept one behind the parked window (Simulator::ScheduleAt after
  // RunUntil does exactly this).
  q.Push(3 * kUs, [] {});
  EXPECT_EQ(q.NextTime(), 3 * kUs);
  q.Pop(&when)();
  EXPECT_EQ(when, 3 * kUs);
}

TEST(CalendarQueue, EarlierPushInsideCursorWindowFiresFirst) {
  // The cursor and the next-event cache sit on the window holding the lone
  // pending event. Pushes between the window start and that event land in
  // the same bucket, ahead of it, and must fire first, in scheduling order.
  EventQueue q;
  const Tick window = 2 * q.bucket_width();
  const Tick last = window + q.bucket_width() - 1;
  std::vector<int> order;
  q.Push(last, [&order] { order.push_back(2); });
  ASSERT_EQ(q.NextTime(), last);
  q.Push(window + 1, [&order] { order.push_back(0); });
  q.Push(window + 1, [&order] { order.push_back(1); });
  EXPECT_EQ(q.NextTime(), window + 1);
  Tick when = 0;
  q.Pop(&when)();
  EXPECT_EQ(when, window + 1);
  q.Pop(&when)();
  EXPECT_EQ(when, window + 1);
  q.Pop(&when)();
  EXPECT_EQ(when, last);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CalendarQueue, SparseFarFutureEventsFound) {
  // Events spread far beyond bucket_count * bucket_width exercise the
  // full-rotation fallback (erase completions, Storengine daemon ticks).
  EventQueue q;
  std::vector<Tick> fired;
  const std::vector<Tick> times = {2 * kUs, 81 * kUs, 2600 * kUs, 6 * kMs, 500 * kMs, 2 * kSec};
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const Tick t = *it;
    q.Push(t, [&fired, t] { fired.push_back(t); });
  }
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
  }
  EXPECT_EQ(fired, times);
}

TEST(CalendarQueue, ResizesUnderLoadWithoutReordering) {
  EventQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  std::uint64_t x = 12345;
  std::vector<std::pair<Tick, int>> pushed;
  for (int i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Tick t = (x >> 40) % (10 * kMs);
    pushed.push_back({t, i});
    q.Push(t, [] {});
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);  // grew with the population
  Tick prev = 0;
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
    EXPECT_GE(when, prev);
    prev = when;
  }
  EXPECT_LT(q.bucket_count(), std::size_t{1} << 16);
}

// Randomized oracle check: the calendar queue must pop the exact (when, seq)
// sequence an ordered set keyed on (when, seq) yields, including daemon
// bookkeeping, under a mix of interleaved pushes and pops at ONFi-like
// spacings. The push id doubles as the sequence number.
TEST(CalendarQueue, MatchesOrderedSetOnRandomWorkload) {
  Rng rng(7);
  EventQueue cal;
  std::set<std::pair<Tick, int>> oracle;
  std::vector<bool> is_daemon;
  std::size_t oracle_non_daemons = 0;
  int fired_tag = -1;
  Tick now = 0;
  // Pops both sides, checks they agree on the time and on which event fired,
  // and advances `now` to the popped time.
  auto pop_both = [&]() {
    ASSERT_FALSE(oracle.empty());
    const std::pair<Tick, int> expect = *oracle.begin();
    oracle.erase(oracle.begin());
    if (!is_daemon[static_cast<std::size_t>(expect.second)]) {
      --oracle_non_daemons;
    }
    cal.Pop(&now)();
    ASSERT_EQ(now, expect.first);
    ASSERT_EQ(fired_tag, expect.second);
  };
  int id = 0;
  for (int round = 0; round < 2000; ++round) {
    const int pushes = static_cast<int>(rng.NextBelow(4));
    for (int p = 0; p < pushes; ++p) {
      const std::uint64_t pick = rng.NextBelow(100);
      Tick delay = kUs;
      if (pick >= 50 && pick < 80) {
        delay = 81 * kUs;
      } else if (pick >= 80 && pick < 95) {
        delay = 0;  // same-tick chains
      } else if (pick >= 95 && pick < 99) {
        delay = 2600 * kUs;
      } else if (pick >= 99) {
        delay = 6 * kMs;
      }
      const bool daemon = rng.NextBelow(16) == 0;
      const Tick when = now + delay;
      const int tag = id++;
      cal.Push(when, [&fired_tag, tag] { fired_tag = tag; }, daemon);
      oracle.insert({when, tag});
      is_daemon.push_back(daemon);
      if (!daemon) {
        ++oracle_non_daemons;
      }
    }
    if (!cal.empty() && rng.NextBelow(3) != 0) {
      ASSERT_FALSE(oracle.empty());
      ASSERT_EQ(cal.NextTime(), oracle.begin()->first);
      ASSERT_EQ(cal.OnlyDaemonsLeft(), oracle_non_daemons == 0);
      ASSERT_NO_FATAL_FAILURE(pop_both());
    }
  }
  while (!cal.empty()) {
    ASSERT_NO_FATAL_FAILURE(pop_both());
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(oracle_non_daemons, 0u);
}

}  // namespace
}  // namespace fabacus

// Tests for Storengine: background garbage collection (round-robin victims,
// valid-data migration), metadata journaling, and wear-levelling behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/storengine.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

class StorengineFixture : public ::testing::Test {
 protected:
  explicit StorengineFixture(NandConfig nand = TinyNand())
      : nand_(nand),
        backbone_(nand_),
        dram_(DramConfig{}),
        scratchpad_(ScratchpadConfig{}),
        fv_(&sim_, &backbone_, &dram_, &scratchpad_),
        se_(&sim_, &fv_, StorengineConfig{.journal_interval = 5 * kMs,
                                          .gc_interval = 1 * kMs,
                                          .gc_high_watermark = 6}) {}

  void Write(std::uint64_t addr, const std::vector<float>& payload, std::uint64_t model_bytes) {
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = addr;
    req.model_bytes = model_bytes;
    req.func_data = const_cast<float*>(payload.data());
    req.func_bytes = payload.size() * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
  }

  std::vector<float> Read(std::uint64_t addr, std::size_t count) {
    std::vector<float> out(count, -1.0f);
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kRead;
    req.flash_addr = addr;
    req.model_bytes = count * sizeof(float);
    req.func_data = out.data();
    req.func_bytes = count * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
    return out;
  }

  Simulator sim_;
  NandConfig nand_;
  FlashBackbone backbone_;
  Dram dram_;
  Scratchpad scratchpad_;
  Flashvisor fv_;
  Storengine se_;
};

TEST_F(StorengineFixture, GcPassMigratesValidDataAndReclaims) {
  // Fill two block groups, half of each invalidated by overwrites, then run
  // one explicit GC pass: the victim's live groups must survive.
  const std::uint32_t slots = fv_.DataSlotsPerBlockGroup();
  const std::uint64_t bg_bytes = static_cast<std::uint64_t>(slots) * nand_.GroupBytes();
  const std::uint64_t keep = fv_.AllocLogicalExtent(bg_bytes / 2);
  const std::uint64_t churn = fv_.AllocLogicalExtent(bg_bytes / 2);
  std::vector<float> live(128);
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = static_cast<float>(i) * 2.0f;
  }
  Write(keep, live, bg_bytes / 2);
  Write(churn, {}, bg_bytes / 2);
  Write(churn, {}, bg_bytes / 2);  // invalidates first churn copy
  Write(churn, {}, bg_bytes / 2);  // seals more blocks
  ASSERT_GT(fv_.blocks().used_count(), 0u);

  const std::uint64_t reclaimed_before = se_.blocks_reclaimed();
  bool done = false;
  se_.RunGcPass([&](Tick) { done = true; });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(se_.blocks_reclaimed(), reclaimed_before + 1);
  EXPECT_EQ(Read(keep, live.size()), live);
}

TEST_F(StorengineFixture, GcOnEmptyPoolIsANoOp) {
  bool done = false;
  se_.RunGcPass([&](Tick) { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(se_.gc_passes(), 0u);
}

TEST_F(StorengineFixture, JournalDumpPersistsMappingSnapshot) {
  const std::uint64_t addr = fv_.AllocLogicalExtent(4 * nand_.GroupBytes());
  std::vector<float> data(64, 3.5f);
  Write(addr, data, 4 * nand_.GroupBytes());
  bool done = false;
  se_.RunJournalDump([&](Tick) { done = true; });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(se_.journal_dumps(), 1u);
  // The journal consumed a block group; a second dump recycles the first.
  bool done2 = false;
  se_.RunJournalDump([&](Tick) { done2 = true; });
  sim_.Run();
  ASSERT_TRUE(done2);
  EXPECT_EQ(se_.journal_dumps(), 2u);
}

TEST_F(StorengineFixture, JournalDumpWithNoFreeBlockGroupIsSkipped) {
  bool first = false;
  se_.RunJournalDump([&](Tick) { first = true; });
  sim_.Run();
  ASSERT_TRUE(first);
  const std::uint64_t journal = se_.last_journal_bg();
  ASSERT_NE(journal, BlockManager::kNone);
  while (fv_.blocks().AllocBlockGroup() != BlockManager::kNone) {
  }
  // With nothing free the dump is skipped at once: no program, no counter,
  // and the previous journal stays the durable one.
  const std::uint64_t programs = backbone_.programs();
  bool done = false;
  Tick at = 0;
  se_.RunJournalDump([&](Tick t) {
    done = true;
    at = t;
  });
  ASSERT_TRUE(done);
  EXPECT_EQ(at, sim_.Now());
  sim_.Run();
  EXPECT_EQ(backbone_.programs(), programs);
  EXPECT_EQ(se_.journal_dumps(), 1u);
  EXPECT_EQ(se_.journal_aborts(), 0u);
  EXPECT_EQ(se_.last_journal_bg(), journal);
}

TEST_F(StorengineFixture, GcSkipsAGroupRewrittenWhileItWaitedForTheLock) {
  // Block group X holds one logical extent in all its data slots; one more
  // group seals it, so X is the only GC candidate.
  const std::uint32_t slots = fv_.DataSlotsPerBlockGroup();
  ASSERT_EQ(slots, 62u);
  const std::size_t group_floats = nand_.GroupBytes() / sizeof(float);
  const std::uint64_t x_bytes = static_cast<std::uint64_t>(slots) * nand_.GroupBytes();
  const std::uint64_t x = fv_.AllocLogicalExtent(x_bytes);
  std::vector<float> old(slots * group_floats);
  for (std::size_t i = 0; i < old.size(); ++i) {
    old[i] = static_cast<float>(i);
  }
  Write(x, old, x_bytes);
  Write(fv_.AllocLogicalExtent(nand_.GroupBytes()), {}, nand_.GroupBytes());
  ASSERT_EQ(fv_.blocks().used_count(), 1u);
  const std::uint64_t lg = x / nand_.GroupBytes();

  // A reader holds L = X's first logical group, so a host rewrite of L
  // queues on the range lock...
  RangeLock::LockId reader = 0;
  fv_.range_lock().Acquire(lg, lg, LockMode::kRead, [&](RangeLock::LockId id) { reader = id; });
  ASSERT_NE(reader, 0u);
  const std::vector<float> fresh(group_floats, -7.0f);
  Flashvisor::IoRequest req;
  req.type = Flashvisor::IoRequest::Type::kWrite;
  req.flash_addr = x;
  req.model_bytes = nand_.GroupBytes();
  req.func_data = const_cast<float*>(fresh.data());
  req.func_bytes = nand_.GroupBytes();
  req.on_complete = [](Tick, IoStatus) {};
  const std::uint64_t writes = fv_.writes_served();
  fv_.SubmitIo(std::move(req));
  sim_.RunUntil(sim_.Now() + 50 * kUs);
  EXPECT_EQ(fv_.writes_served(), writes);
  EXPECT_EQ(fv_.range_lock().waiter_count(), 1u);

  // ...and the GC pass's migration of L queues behind the write.
  bool done = false;
  se_.RunGcPass([&](Tick) { done = true; });
  sim_.RunUntil(sim_.Now() + 50 * kUs);
  EXPECT_EQ(se_.groups_migrated(), 0u);
  EXPECT_EQ(fv_.range_lock().waiter_count(), 2u);

  // Once the reader lets go the write remaps L first, so the pass finds L's
  // slot stale when its turn comes and moves only the other groups.
  fv_.range_lock().Release(reader);
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(fv_.writes_served(), writes + 1);
  EXPECT_EQ(se_.groups_migrated(), slots - 1u);
  EXPECT_EQ(se_.blocks_reclaimed(), 1u);
  std::vector<float> expected = old;
  std::copy(fresh.begin(), fresh.end(), expected.begin());
  EXPECT_EQ(Read(x, expected.size()), expected);
}

TEST_F(StorengineFixture, BackgroundTasksStopCleanly) {
  se_.Start();
  sim_.RunUntil(20 * kMs);
  se_.Stop();
  sim_.Run();  // must drain without re-arming forever
  SUCCEED();
}

TEST_F(StorengineFixture, StopQuiescesAllBackgroundDaemons) {
  // After Stop() no journal, GC, or scrub event may fire: the already-armed
  // daemons must self-cancel (epoch guard) so the simulator drains instead of
  // ticking forever, and the pass counters freeze.
  se_.Start();
  const std::uint64_t window = 4ULL * fv_.DataSlotsPerBlockGroup() * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(window);
  for (int pass = 0; pass < 4; ++pass) {
    Write(addr, {}, window);  // churn so the daemons have work
  }
  sim_.RunUntil(20 * kMs);
  se_.Stop();
  const std::uint64_t gc = se_.gc_passes();
  const std::uint64_t dumps = se_.journal_dumps();
  const std::uint64_t scrubs = se_.scrub_passes();
  sim_.Run();  // must drain; a re-arming daemon would never let this return
  EXPECT_EQ(se_.gc_passes(), gc);
  EXPECT_EQ(se_.journal_dumps(), dumps);
  EXPECT_EQ(se_.scrub_passes(), scrubs);

  // Start() re-arms: a subsequent explicit pass still works (the re-armed
  // periodic daemon may legitimately add dumps of its own while draining).
  se_.Start();
  bool done = false;
  se_.RunJournalDump([&](Tick) { done = true; });
  sim_.Run();
  se_.Stop();
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_GE(se_.journal_dumps(), dumps + 1);
}

class ScrubErrorFixture : public StorengineFixture {
 protected:
  ScrubErrorFixture() : StorengineFixture([] {
    NandConfig cfg = TinyNand();
    cfg.fault.read_error_base = 1.0;  // every read walks the retry ladder
    return cfg;
  }()) {}
};

TEST_F(ScrubErrorFixture, ScrubRefreshesErrorHeavyBlockGroups) {
  // Drive a sealed block group's correctable-error count over the scrub
  // threshold, then run one scrub pass: the group is refresh-migrated and the
  // data survives at a new physical home.
  const std::uint32_t slots = fv_.DataSlotsPerBlockGroup();
  const std::uint64_t bg_bytes = static_cast<std::uint64_t>(slots) * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(bg_bytes);
  std::vector<float> live(256);
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = static_cast<float>(i) + 0.5f;
  }
  Write(addr, live, bg_bytes);
  Write(fv_.AllocLogicalExtent(nand_.GroupBytes()), {}, nand_.GroupBytes());  // seal
  ASSERT_GT(fv_.blocks().used_count(), 0u);

  // Every read walks the retry ladder, charging one correctable error to the
  // block; cross the threshold.
  for (std::uint32_t i = 0; i < se_.config().scrub_error_threshold + 1; ++i) {
    EXPECT_EQ(Read(addr, live.size()), live);
  }
  bool done = false;
  se_.RunScrubPass([&](Tick) { done = true; });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(se_.scrub_passes(), 1u);
  EXPECT_GT(se_.scrub_migrations(), 0u);
  EXPECT_EQ(Read(addr, live.size()), live);
}

TEST_F(StorengineFixture, ScrubWithNothingToDoIsANoOp) {
  bool done = false;
  se_.RunScrubPass([&](Tick) { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(se_.scrub_passes(), 0u);
  EXPECT_EQ(se_.scrub_migrations(), 0u);
}

TEST_F(StorengineFixture, RoundRobinVictimsLevelWear) {
  // Repeatedly overwrite one logical window; round-robin reclamation should
  // spread erases across blocks rather than hammering a few.
  const std::uint32_t slots = fv_.DataSlotsPerBlockGroup();
  const std::uint64_t window_bytes = 4ULL * slots * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(window_bytes);
  for (int pass = 0; pass < 8; ++pass) {
    Write(addr, {}, window_bytes);
  }
  // Wear spread across packages' blocks: max wear should be small (no block
  // is erased disproportionally).
  EXPECT_LE(backbone_.MaxWear(), 8u);
  EXPECT_GT(backbone_.TotalErases(), 0u);
}

}  // namespace
}  // namespace fabacus

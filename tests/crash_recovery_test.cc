// Power-loss crash recovery: rebuilding the mapping table from the last
// Storengine journal plus OOB replay of post-journal programs, torn-write
// handling, and the device-level CrashAt / RecoverFromFlash flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "src/core/storengine.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

class CrashRecoveryFixture : public ::testing::Test {
 protected:
  CrashRecoveryFixture()
      : nand_(TinyNand()),
        backbone_(nand_),
        dram_(DramConfig{}),
        scratchpad_(ScratchpadConfig{}),
        fv_(&sim_, &backbone_, &dram_, &scratchpad_),
        se_(&sim_, &fv_) {}

  void Write(std::uint64_t addr, const std::vector<float>& payload,
             std::uint64_t model_bytes) {
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

  std::vector<float> Pattern(std::size_t n, float scale) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<float>(i) * scale + scale;
    }
    return v;
  }

  // Models the power cut on the raw stack (FlashAbacus::Crash does the same
  // sequence at device level).
  void PowerCut() {
    sim_.Halt();
    se_.Stop();
    backbone_.PowerFail(sim_.Now());
    fv_.OnPowerLoss();
  }

  Simulator sim_;
  NandConfig nand_;
  FlashBackbone backbone_;
  Dram dram_;
  Scratchpad scratchpad_;
  Flashvisor fv_;
  Storengine se_;
};

TEST_F(CrashRecoveryFixture, RecoveryRestoresJournalAndReplaysLaterWrites) {
  // Durable pre-journal data + journal dump + durable post-journal data:
  // recovery must restore the snapshot, replay the later programs from their
  // OOB records, and leave a fully usable FTL.
  const std::uint64_t a_bytes = 6 * nand_.GroupBytes();
  const std::uint64_t b_bytes = 4 * nand_.GroupBytes();
  const std::uint64_t addr_a = fv_.AllocLogicalExtent(a_bytes);
  const std::vector<float> data_a = Pattern(384, 0.5f);
  Write(addr_a, data_a, a_bytes);

  bool dumped = false;
  se_.RunJournalDump([&](Tick) { dumped = true; });
  sim_.Run();
  ASSERT_TRUE(dumped);

  const std::uint64_t addr_b = fv_.AllocLogicalExtent(b_bytes);
  const std::vector<float> data_b = Pattern(256, 2.0f);
  Write(addr_b, data_b, b_bytes);  // post-journal: only OOB records know this

  PowerCut();
  const Flashvisor::RecoveryReport rep = fv_.RecoverFromFlash(sim_.Now());
  ASSERT_TRUE(rep.found_journal);
  EXPECT_EQ(rep.journal_bg, se_.last_journal_bg());
  EXPECT_GT(rep.restored_entries, 0u);
  EXPECT_GE(rep.replayed_groups, b_bytes / nand_.GroupBytes());
  EXPECT_EQ(rep.lost_groups, 0u);
  EXPECT_EQ(rep.torn_groups, 0u);
  EXPECT_GT(rep.done, 0u) << "recovery reads cost simulated time";

  EXPECT_EQ(Read(addr_a, data_a.size()), data_a);
  EXPECT_EQ(Read(addr_b, data_b.size()), data_b);

  // The rebuilt pools accept new writes.
  const std::uint64_t addr_c = fv_.AllocLogicalExtent(nand_.GroupBytes());
  const std::vector<float> data_c = Pattern(64, 7.0f);
  Write(addr_c, data_c, nand_.GroupBytes());
  EXPECT_EQ(Read(addr_c, data_c.size()), data_c);
}

TEST_F(CrashRecoveryFixture, NoJournalRecoversFromOobAlone) {
  // Without any journal dump the snapshot phase finds nothing, but every
  // durable program still carries its OOB record, so replay alone rebuilds
  // the table.
  const std::uint64_t bytes = 5 * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(bytes);
  const std::vector<float> data = Pattern(128, 1.5f);
  Write(addr, data, bytes);

  PowerCut();
  const Flashvisor::RecoveryReport rep = fv_.RecoverFromFlash(sim_.Now());
  EXPECT_FALSE(rep.found_journal);
  EXPECT_EQ(rep.restored_entries, 0u);
  EXPECT_GE(rep.replayed_groups, bytes / nand_.GroupBytes());
  EXPECT_EQ(Read(addr, data.size()), data);
}

TEST_F(CrashRecoveryFixture, TornWritesAreDroppedNotReplayed) {
  // Crash while programs are still in flight: the torn groups must be
  // reported and their stale mappings dropped — never replayed as if the
  // data had landed. Earlier durable data survives untouched.
  const std::uint64_t addr_a = fv_.AllocLogicalExtent(4 * nand_.GroupBytes());
  const std::vector<float> data_a = Pattern(192, 3.0f);
  Write(addr_a, data_a, 4 * nand_.GroupBytes());
  bool dumped = false;
  se_.RunJournalDump([&](Tick) { dumped = true; });
  sim_.Run();
  ASSERT_TRUE(dumped);

  // Submit a write and stop the clock at acceptance: its flash programs are
  // booked but their die completions lie in the future.
  const std::uint64_t addr_b = fv_.AllocLogicalExtent(4 * nand_.GroupBytes());
  Flashvisor::IoRequest req;
  req.type = Flashvisor::IoRequest::Type::kWrite;
  req.flash_addr = addr_b;
  req.model_bytes = 4 * nand_.GroupBytes();
  Tick accepted = 0;
  req.on_complete = [&](Tick t, IoStatus) { accepted = t; };
  fv_.SubmitIo(std::move(req));
  while (accepted == 0 && sim_.Step()) {
  }
  ASSERT_GT(accepted, 0u);
  ASSERT_GT(fv_.write_drain_horizon(), sim_.Now()) << "programs must still be in flight";

  PowerCut();
  EXPECT_GT(backbone_.torn_groups(), 0u);
  const Flashvisor::RecoveryReport rep = fv_.RecoverFromFlash(sim_.Now());
  ASSERT_TRUE(rep.found_journal);
  EXPECT_GT(rep.torn_groups, 0u);
  // The torn write's extent reads back as unmapped zeros, not garbage.
  const std::vector<float> b_now = Read(addr_b, 64);
  for (float f : b_now) {
    EXPECT_EQ(f, 0.0f);
  }
  EXPECT_EQ(Read(addr_a, data_a.size()), data_a);
}

TEST_F(CrashRecoveryFixture, RepeatedCrashesConverge) {
  // Crash -> recover -> write -> journal -> crash -> recover: each cycle
  // must leave a consistent FTL (the previous journal block group is
  // reconstructed, erased and recycled correctly).
  std::vector<float> data = Pattern(128, 1.0f);
  const std::uint64_t addr = fv_.AllocLogicalExtent(4 * nand_.GroupBytes());
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(cycle * 1000 + static_cast<int>(i));
    }
    Write(addr, data, 4 * nand_.GroupBytes());
    bool dumped = false;
    se_.RunJournalDump([&](Tick) { dumped = true; });
    sim_.Run();
    ASSERT_TRUE(dumped);
    PowerCut();
    const Flashvisor::RecoveryReport rep = fv_.RecoverFromFlash(sim_.Now());
    ASSERT_TRUE(rep.found_journal) << "cycle " << cycle;
    se_.SetJournalLocation(rep.journal_bg);
    ASSERT_EQ(Read(addr, data.size()), data) << "cycle " << cycle;
  }
}

// --- Device-level flow ------------------------------------------------------

TEST(CrashRecoveryDevice, CrashMidWorkloadRecoversDurableData) {
  // Acceptance flow: install durable datasets, take a journal dump, install
  // more data (post-journal), start a workload run, cut power mid-run, then
  // RecoverFromFlash() and verify every durably-written input section reads
  // back bit-exact. Losses are reported, never CHECK-failed.
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  ASSERT_NE(wl, nullptr);
  FlashAbacusConfig cfg = TestDeviceConfig();
  cfg.nand = TinyNand();

  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  Rng rng(42);
  auto inst1 = std::make_unique<AppInstance>(0, 0, &wl->spec(), cfg.model_scale);
  auto inst2 = std::make_unique<AppInstance>(0, 1, &wl->spec(), cfg.model_scale);
  wl->Prepare(*inst1, rng);
  wl->Prepare(*inst2, rng);

  dev.InstallData(inst1.get(), [](Tick) {});
  sim.Run();  // drained: inst1's inputs are durable
  bool dumped = false;
  dev.storengine().RunJournalDump([&](Tick) { dumped = true; });
  sim.Run();
  ASSERT_TRUE(dumped);
  dev.InstallData(inst2.get(), [](Tick) {});
  sim.Run();  // drained post-journal writes (recovered via OOB replay)

  bool run_done = false;
  dev.Run({inst1.get(), inst2.get()}, SchedulerKind::kIntraOutOfOrder,
          [&](RunReport) { run_done = true; });
  dev.CrashAt(sim.Now() + 500 * kUs);
  sim.Run();
  ASSERT_TRUE(dev.crashed());
  EXPECT_FALSE(run_done) << "the abandoned run's callback must never fire";

  const Flashvisor::RecoveryReport rep = dev.RecoverFromFlash();
  ASSERT_TRUE(rep.found_journal);
  EXPECT_GT(rep.replayed_groups, 0u);
  EXPECT_FALSE(dev.crashed());

  // Every durably-installed input section reads back bit-exact.
  for (AppInstance* inst : {inst1.get(), inst2.get()}) {
    for (int s = 0; s < static_cast<int>(inst->sections().size()); ++s) {
      const DataSection& sec = inst->sections()[static_cast<std::size_t>(s)];
      if (sec.spec->dir != DataSectionSpec::Dir::kIn || sec.spec->buffer_index < 0) {
        continue;
      }
      std::vector<float> out;
      bool read_done = false;
      dev.ReadSectionFromFlash(inst, s, &out, [&](Tick) { read_done = true; });
      sim.Run();
      ASSERT_TRUE(read_done);
      const std::vector<float>& expect = inst->buffer(sec.spec->buffer_index);
      ASSERT_EQ(out.size(), expect.size());
      EXPECT_EQ(std::memcmp(out.data(), expect.data(), out.size() * sizeof(float)), 0)
          << "instance " << inst->instance_id() << " section " << s;
    }
  }

  // Crash + recovery are observable in the metrics registry.
  const MetricsSnapshot snap = dev.metrics().Snapshot(sim.Now());
  EXPECT_EQ(snap.Value("device/crashes"), 1.0);
  EXPECT_EQ(snap.Value("device/recoveries"), 1.0);
  EXPECT_GE(snap.Value("device/recovery_torn_groups"), 0.0);
  EXPECT_GE(snap.Value("device/recovery_lost_groups"), 0.0);
  EXPECT_GT(snap.Value("device/last_recovery_ns"), 0.0);

  // The device is usable again: a fresh run over the same instances
  // completes end to end.
  bool rerun_done = false;
  dev.Run({inst1.get(), inst2.get()}, SchedulerKind::kIntraOutOfOrder,
          [&](RunReport) { rerun_done = true; });
  sim.Run();
  EXPECT_TRUE(rerun_done);
}

TEST(CrashRecoveryDevice, PaperGeometryJournalAndFooterBytes) {
  // At Paper geometry the 2 MiB mapping table fills exactly 32 journal
  // groups and a block summary fits in the first footer slot. Pins the bytes
  // a journal dump and a seal store there, then recovers every mapping from
  // flash after a crash.
  const FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  Flashvisor& fv = dev.flashvisor();
  const FlashBackbone& bb = dev.backbone();
  const std::uint64_t group_bytes = cfg.nand.GroupBytes();
  ASSERT_EQ(fv.mapping().table_bytes(), 32 * group_bytes);

  Rng rng(42);
  std::vector<std::unique_ptr<AppInstance>> insts;
  for (const char* name : {"GEMM", "ATAX"}) {
    const Workload* wl = WorkloadRegistry::Get().Find(name);
    ASSERT_NE(wl, nullptr) << name;
    insts.push_back(std::make_unique<AppInstance>(0, static_cast<int>(insts.size()),
                                                  &wl->spec(), cfg.model_scale));
    wl->Prepare(*insts.back(), rng);
    ASSERT_TRUE(dev.InstallData(insts.back().get(), [](Tick) {}));
    sim.Run();
  }
  // One block group's worth of timing-only writes fills the installs' block
  // group, and the allocation after its last data slot seals it.
  const std::uint32_t data_slots = fv.DataSlotsPerBlockGroup();
  Flashvisor::IoRequest fill;
  fill.type = Flashvisor::IoRequest::Type::kWrite;
  fill.model_bytes = std::uint64_t{data_slots} * group_bytes;
  fill.flash_addr = fv.AllocLogicalExtent(fill.model_bytes);
  fill.on_complete = [](Tick, IoStatus) {};
  fv.SubmitIo(std::move(fill));
  sim.Run();
  ASSERT_FALSE(fv.blocks().used().empty());
  const std::uint64_t sealed = fv.blocks().used().front();

  // Footer 0: the logical group in each data slot, then zeros; footer 1: a
  // programmed all-zero payload.
  std::vector<std::vector<std::uint8_t>> footers(2, std::vector<std::uint8_t>(group_bytes, 0));
  for (std::uint32_t s = 0; s < data_slots; ++s) {
    const std::uint32_t lg = fv.mapping().ReverseLookup(fv.GroupOfSlot(sealed, s));
    std::memcpy(footers[0].data() + s * sizeof(lg), &lg, sizeof(lg));
  }
  for (std::uint32_t f = 0; f < 2; ++f) {
    const std::uint32_t g = fv.GroupOfSlot(sealed, data_slots + f);
    ASSERT_EQ(bb.Oob(g).tag, kOobFooter) << "footer " << f;
    const std::uint8_t* stored = bb.GroupData(g);
    ASSERT_NE(stored, nullptr) << "footer " << f;
    EXPECT_TRUE(std::equal(footers[f].begin(), footers[f].end(), stored)) << "footer " << f;
  }

  // The journal: 32 groups equal to the table's bytes, and nothing after.
  bool dumped = false;
  dev.storengine().RunJournalDump([&](Tick) { dumped = true; });
  sim.Run();
  ASSERT_TRUE(dumped);
  const std::uint64_t journal = dev.storengine().last_journal_bg();
  const std::span<const std::uint8_t> table = fv.mapping().bytes();
  for (std::uint32_t j = 0; j < 32; ++j) {
    const std::uint32_t g = fv.GroupOfSlot(journal, j);
    ASSERT_EQ(bb.Oob(g).tag, kOobJournal) << "journal group " << j;
    const std::uint8_t* stored = bb.GroupData(g);
    ASSERT_NE(stored, nullptr) << "journal group " << j;
    EXPECT_TRUE(std::equal(stored, stored + group_bytes, table.begin() + j * group_bytes))
        << "journal group " << j;
  }
  EXPECT_EQ(bb.Oob(fv.GroupOfSlot(journal, 32)).tag, kOobUnwritten);

  const std::vector<std::uint8_t> before(table.begin(), table.end());
  dev.CrashAt(sim.Now() + 1 * kMs);
  sim.Run();
  ASSERT_TRUE(dev.crashed());
  const Flashvisor::RecoveryReport rep = dev.RecoverFromFlash();
  ASSERT_TRUE(rep.found_journal);
  EXPECT_EQ(rep.journal_bg, journal);
  EXPECT_EQ(rep.lost_groups, 0u);
  const std::span<const std::uint8_t> after = fv.mapping().bytes();
  EXPECT_TRUE(std::equal(after.begin(), after.end(), before.begin(), before.end()));
}

TEST(CrashRecoveryDevice, DeterministicCrashAndRecoveryTimeline) {
  // Same seed, same crash tick => identical recovery reports and identical
  // post-recovery flash state.
  auto run_once = []() {
    const Workload* wl = WorkloadRegistry::Get().Find("GESUM");
    FlashAbacusConfig cfg = TestDeviceConfig();
    cfg.nand = TinyNand();
    cfg.nand.fault.read_error_base = 0.05;
    Simulator sim;
    FlashAbacus dev(&sim, cfg);
    Rng rng(7);
    auto inst = std::make_unique<AppInstance>(0, 0, &wl->spec(), cfg.model_scale);
    wl->Prepare(*inst, rng);
    dev.InstallData(inst.get(), [](Tick) {});
    sim.Run();
    bool dumped = false;
    dev.storengine().RunJournalDump([&](Tick) { dumped = true; });
    sim.Run();
    dev.Run({inst.get()}, SchedulerKind::kIntraOutOfOrder, [](RunReport) {});
    dev.CrashAt(sim.Now() + 300 * kUs);
    sim.Run();
    const Flashvisor::RecoveryReport rep = dev.RecoverFromFlash();
    return std::make_tuple(rep.journal_seq, rep.restored_entries, rep.replayed_groups,
                           rep.torn_groups, rep.lost_groups, rep.done, sim.Now());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fabacus

// Locks down the engine's determinism contract: a sweep of independent
// simulations returns byte-identical RunReport JSON on repeat runs and
// whether it runs on 1, 2 or 8 threads — including through the recovery
// machinery (fault ladders, die kills, power loss + FTL rebuild).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/sweep_runner.h"

namespace fabacus {
namespace {

// Fig-10-style grid, shrunk for test runtime: the five paper systems on one
// kernel. Report JSON captures makespan, metrics, energy, latency histogram
// and trace aggregates — everything the figures are derived from.
BenchOptions SmallOpt() {
  BenchOptions opt;
  opt.model_scale = kBenchScale / 4;
  return opt;
}

std::vector<std::function<BenchRun()>> MakeGrid(const BenchOptions& opt) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  std::vector<std::function<BenchRun()>> jobs;
  jobs.emplace_back([wl, opt] { return RunSimdSystem({wl}, 2, opt); });
  for (SchedulerKind kind : {SchedulerKind::kInterStatic, SchedulerKind::kIntraInOrder,
                             SchedulerKind::kInterDynamic, SchedulerKind::kIntraOutOfOrder}) {
    jobs.emplace_back([wl, kind, opt] { return RunFlashAbacusSystem({wl}, 2, kind, opt); });
  }
  return jobs;
}

std::vector<std::string> RunGrid(int threads, const BenchOptions& opt) {
  SweepRunner pool(threads);
  std::vector<BenchRun> runs = pool.Run(MakeGrid(opt));
  std::vector<std::string> reports;
  for (const BenchRun& r : runs) {
    EXPECT_TRUE(r.verified) << r.system;
    reports.push_back(r.result.ToJson());
  }
  return reports;
}

TEST(SweepDeterminism, RepeatRunsAreByteIdentical) {
  const std::vector<std::string> first = RunGrid(1, SmallOpt());
  const std::vector<std::string> second = RunGrid(1, SmallOpt());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "run " << i << " diverged across repeats";
  }
}

TEST(SweepDeterminism, ThreadCountDoesNotChangeReports) {
  const std::vector<std::string> serial = RunGrid(1, SmallOpt());
  for (int threads : {2, 8}) {
    const std::vector<std::string> parallel = RunGrid(threads, SmallOpt());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "run " << i << " diverged at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized stress grids (registered separately under the "slow" ctest
// label; the fast pass filters them out via GTEST_FILTER=-*Slow*).
//
// The clean-path tests above leave the recovery machinery cold. These grids
// push the repeat-determinism contract through wear-dependent read-retry
// ladders, program-failure re-allocations, die stalls, scripted die kills,
// and mid-run power loss + FTL rebuild: every case runs once serially and
// once on the default sweep pool, and the two outputs must match byte for
// byte. Every failure message carries the config seed so a divergence is
// reproducible in isolation.
// ---------------------------------------------------------------------------

FaultConfig RandomFaultConfig(std::uint64_t seed, const NandConfig& nand) {
  Rng rng(seed);
  FaultConfig f;
  f.seed = rng.Next();
  f.read_error_base = rng.NextDouble(0.0, 0.15);
  f.read_error_wear_slope = rng.NextDouble(0.0, 0.6);
  f.retry_rung_fail = rng.NextDouble(0.1, 0.5);
  f.program_failure_rate = rng.NextDouble(0.0, 0.02);
  f.erase_failure_rate = rng.NextDouble(0.0, 0.02);
  f.die_stall_rate = rng.NextDouble(0.0, 0.01);
  f.die_stall_ns = static_cast<Tick>(rng.NextBelow(200) + 20) * kUs;
  if (rng.NextBelow(3) == 0) {  // a third of configs also lose a die mid-run
    FaultPlanEntry e;
    e.kind = FaultPlanEntry::Kind::kKillDie;
    e.at = static_cast<Tick>(rng.NextBelow(4000) + 200) * kUs;
    e.channel = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nand.channels)));
    e.package = static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(nand.packages_per_channel)));
    f.plan.push_back(e);
  }
  return f;
}

std::string RunFaultySystem(std::uint64_t cfg_seed) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  cfg.nand.fault = RandomFaultConfig(cfg_seed, cfg.nand);
  // The scheduler under test is itself part of the drawn config.
  Rng pick(cfg_seed ^ 0xabcdULL);
  const SchedulerKind kind =
      std::vector<SchedulerKind>{SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                                 SchedulerKind::kIntraInOrder,
                                 SchedulerKind::kIntraOutOfOrder}[pick.NextBelow(4)];
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  const BenchRun run = RunFlashAbacusSystem({wl}, 2, kind, cfg);
  EXPECT_TRUE(run.verified) << "fault config seed " << cfg_seed
                            << ": recovery ladder failed to preserve outputs";
  return run.result.ToJson();
}

// Runs every job once on a one-thread pool and once on the default pool, and
// returns both result lists in submission order.
std::pair<std::vector<std::string>, std::vector<std::string>> RunSerialAndPooled(
    const std::vector<std::function<std::string()>>& jobs) {
  return {SweepRunner(1).Run(jobs), SweepRunner().Run(jobs)};
}

TEST(SweepDeterminismSlow, RandomFaultConfigsRepeatByteIdentically) {
  constexpr int kConfigs = 50;
  constexpr std::uint64_t kSeedBase = 1000;
  std::vector<std::function<std::string()>> jobs;
  for (int i = 0; i < kConfigs; ++i) {
    const std::uint64_t seed = kSeedBase + static_cast<std::uint64_t>(i);
    jobs.emplace_back([seed] { return RunFaultySystem(seed); });
  }
  const auto [serial, pooled] = RunSerialAndPooled(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i])
        << "fault config seed " << (kSeedBase + i)
        << " diverged between the serial and the pooled run";
  }
}

// One full power-loss drill: install (journaled + post-journal data), crash
// mid-run, rebuild the FTL from flash, then rerun to completion. Returns a
// signature string covering the recovery report, the crash/recovery metrics
// and the post-recovery RunReport JSON.
std::string CrashRecoverySignature(std::uint64_t seed, Tick crash_after, bool with_faults) {
  Simulator sim;
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  if (with_faults) {
    cfg.nand.fault.seed = seed;
    cfg.nand.fault.read_error_base = 0.02;
    cfg.nand.fault.read_error_wear_slope = 0.5;
  }
  FlashAbacus dev(&sim, cfg);
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  Rng rng(seed);
  AppInstance inst1(0, 0, &wl->spec(), cfg.model_scale);
  AppInstance inst2(0, 1, &wl->spec(), cfg.model_scale);
  wl->Prepare(inst1, rng);
  wl->Prepare(inst2, rng);

  dev.InstallData(&inst1, [](Tick) {});
  sim.Run();
  bool dumped = false;
  dev.storengine().RunJournalDump([&](Tick) { dumped = true; });
  sim.Run();
  EXPECT_TRUE(dumped);
  dev.InstallData(&inst2, [](Tick) {});
  sim.Run();  // inst2's writes land after the journal => recovered via OOB replay

  dev.Run({&inst1, &inst2}, SchedulerKind::kIntraOutOfOrder, [](RunReport) {});
  dev.CrashAt(sim.Now() + crash_after);
  sim.Run();
  EXPECT_TRUE(dev.crashed()) << "crash tick landed after the run finished";

  const Flashvisor::RecoveryReport rec = dev.RecoverFromFlash();
  std::string sig;
  sig += "found_journal=" + std::to_string(rec.found_journal);
  sig += " journal_bg=" + std::to_string(rec.journal_bg);
  sig += " journal_seq=" + std::to_string(rec.journal_seq);
  sig += " restored=" + std::to_string(rec.restored_entries);
  sig += " replayed=" + std::to_string(rec.replayed_groups);
  sig += " torn=" + std::to_string(rec.torn_groups);
  sig += " lost=" + std::to_string(rec.lost_groups);
  sig += " done=" + std::to_string(rec.done);
  const MetricsSnapshot snap = dev.metrics().Snapshot(sim.Now());
  for (const char* name : {"device/crashes", "device/recoveries", "device/recovery_torn_groups",
                           "device/recovery_lost_groups", "device/last_recovery_ns"}) {
    sig += std::string(" ") + name + "=" + std::to_string(snap.Value(name));
  }

  // The recovered device must behave identically too: rerun and capture the
  // full report.
  bool rerun_done = false;
  RunReport rerun;
  dev.Run({&inst1, &inst2}, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
    rerun = std::move(r);
    rerun_done = true;
  });
  sim.Run();
  EXPECT_TRUE(rerun_done) << "post-recovery rerun did not complete";
  EXPECT_TRUE(wl->Verify(inst1) && wl->Verify(inst2))
      << "post-recovery outputs failed verification (seed " << seed << ")";
  sig += "\n" + rerun.ToJson();
  return sig;
}

TEST(SweepDeterminismSlow, CrashRecoveryRepeatsByteIdentically) {
  const std::vector<Tick> crash_offsets = {150 * kUs,  400 * kUs,  900 * kUs,
                                           1700 * kUs, 2600 * kUs, 3800 * kUs};
  struct Case {
    std::uint64_t seed;
    Tick crash_after;
    bool with_faults;
  };
  std::vector<Case> cases;
  for (std::size_t i = 0; i < crash_offsets.size(); ++i) {
    cases.push_back({7, crash_offsets[i], i % 2 == 0});
    cases.push_back({21 + i, crash_offsets[i], i % 2 == 1});
  }
  std::vector<std::function<std::string()>> jobs;
  for (const Case& c : cases) {
    jobs.emplace_back([c] { return CrashRecoverySignature(c.seed, c.crash_after, c.with_faults); });
  }
  const auto [serial, pooled] = RunSerialAndPooled(jobs);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(serial[i], pooled[i])
        << "crash-recovery config (seed " << cases[i].seed << ", crash at +"
        << cases[i].crash_after / kUs << "us, faults=" << cases[i].with_faults
        << ") diverged between the serial and the pooled run";
  }
}

}  // namespace
}  // namespace fabacus

// End-to-end heterogeneous tests: multiple different applications offloaded
// together (the paper's multi-kernel story), scheduler orderings under mixes,
// configuration variants (worker counts, streaming fraction), and the
// per-kernel latency summary every system reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace fabacus {
namespace {

struct MixOutcome {
  RunReport result;
  std::vector<std::unique_ptr<AppInstance>> instances;
  std::vector<const Workload*> apps;
  bool run_done = false;

  bool AllVerified() const {
    for (const auto& inst : instances) {
      if (!apps[static_cast<std::size_t>(inst->app_id())]->Verify(*inst)) {
        return false;
      }
    }
    return true;
  }
};

// Prepares `per_app` instances of every app from one seeded stream; returns
// the raw pointers a Run takes.
std::vector<AppInstance*> PrepareApps(MixOutcome* out, int per_app, double model_scale) {
  Rng rng(42);
  std::vector<AppInstance*> raw;
  for (std::size_t a = 0; a < out->apps.size(); ++a) {
    for (int i = 0; i < per_app; ++i) {
      out->instances.push_back(std::make_unique<AppInstance>(static_cast<int>(a), i,
                                                             &out->apps[a]->spec(),
                                                             model_scale));
      out->apps[a]->Prepare(*out->instances.back(), rng);
      raw.push_back(out->instances.back().get());
    }
  }
  return raw;
}

MixOutcome RunApps(std::vector<const Workload*> apps, int per_app, SchedulerKind kind,
                   FlashAbacusConfig cfg = TestDeviceConfig()) {
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  MixOutcome out;
  out.apps = std::move(apps);
  const std::vector<AppInstance*> raw = PrepareApps(&out, per_app, cfg.model_scale);
  for (AppInstance* inst : raw) {
    dev.InstallData(inst, [](Tick) {});
  }
  sim.Run();
  dev.Run(raw, kind, [&](RunReport r) {
    out.result = std::move(r);
    out.run_done = true;
  });
  sim.Run();
  return out;
}

MixOutcome RunMix(int mix, int per_app, SchedulerKind kind,
                  FlashAbacusConfig cfg = TestDeviceConfig()) {
  return RunApps(WorkloadRegistry::Get().Mix(mix), per_app, kind, cfg);
}

MixOutcome RunAppsOnSimd(std::vector<const Workload*> apps, int per_app) {
  SimdConfig cfg;
  cfg.model_scale = 1.0 / 256.0;
  Simulator sim;
  SimdSystem simd(&sim, cfg);
  MixOutcome out;
  out.apps = std::move(apps);
  const std::vector<AppInstance*> raw = PrepareApps(&out, per_app, cfg.model_scale);
  for (AppInstance* inst : raw) {
    simd.InstallData(inst);
  }
  simd.Run(raw, [&](RunReport r) {
    out.result = std::move(r);
    out.run_done = true;
  });
  sim.Run();
  return out;
}

// RunReport::KernelLatencyMs() summarizes completion times measured from the
// run's start. It must equal the exact summary of every instance's own
// submit->complete latency, taken in completion order (the mean's summation
// order), to the bit.
void ExpectKernelLatencyMatchesInstances(const MixOutcome& out) {
  std::vector<const AppInstance*> by_completion;
  for (const auto& inst : out.instances) {
    by_completion.push_back(inst.get());
  }
  std::stable_sort(by_completion.begin(), by_completion.end(),
                   [](const AppInstance* a, const AppInstance* b) {
                     return a->complete_time < b->complete_time;
                   });
  std::vector<double> latency_ms;
  for (const AppInstance* inst : by_completion) {
    latency_ms.push_back(TicksToMs(inst->complete_time - inst->submit_time));
  }
  const HistogramSummary want = SummarizeSamples(latency_ms);
  const HistogramSummary got = out.result.KernelLatencyMs();
  EXPECT_EQ(got.count, out.instances.size());
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.mean, want.mean);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.max, want.max);
  EXPECT_LT(got.min, got.max) << "instances should finish at different ticks";
}

std::vector<const Workload*> TwoAppMix() {
  return {WorkloadRegistry::Get().Find("ATAX"), WorkloadRegistry::Get().Find("GESUM")};
}

class MixSchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(MixSchedulerTest, Mx1AllKernelsVerify) {
  MixOutcome out = RunMix(1, 1, GetParam());
  ASSERT_TRUE(out.run_done);
  EXPECT_TRUE(out.AllVerified());
  EXPECT_EQ(out.result.completion_times.size(), 6u);
}

TEST_P(MixSchedulerTest, KernelLatencyIsEachInstancesSubmitToComplete) {
  const MixOutcome out = RunApps(TwoAppMix(), 3, GetParam());
  ASSERT_TRUE(out.run_done);
  ExpectKernelLatencyMatchesInstances(out);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, MixSchedulerTest,
                         ::testing::Values(SchedulerKind::kInterStatic,
                                           SchedulerKind::kInterDynamic,
                                           SchedulerKind::kIntraInOrder,
                                           SchedulerKind::kIntraOutOfOrder),
                         [](const ::testing::TestParamInfo<SchedulerKind>& info) {
                           return SchedulerKindName(info.param);
                         });

TEST(E2eHeterogeneous, SimdKernelLatencyIsEachInstancesSubmitToComplete) {
  const MixOutcome out = RunAppsOnSimd(TwoAppMix(), 3);
  ASSERT_TRUE(out.run_done);
  ExpectKernelLatencyMatchesInstances(out);
}

TEST(E2eHeterogeneous, IntraO3AtLeastMatchesInterDyOnMixes) {
  // Paper §5.1: IntraO3 outperforms InterDy by ~15% on heterogeneous
  // workloads (stragglers split across workers). Allow slack: no worse
  // than 10% slower on any tested mix.
  for (int mix : {1, 5}) {
    MixOutcome dy = RunMix(mix, 2, SchedulerKind::kInterDynamic);
    MixOutcome o3 = RunMix(mix, 2, SchedulerKind::kIntraOutOfOrder);
    EXPECT_LT(o3.result.makespan, dy.result.makespan * 11 / 10) << "MX" << mix;
  }
}

TEST(E2eHeterogeneous, StaticSchedulerUsesDistinctWorkersPerApp) {
  // Six different apps => InterSt maps each to its own worker; utilization
  // must beat the homogeneous case (where everything piles on one LWP).
  MixOutcome mixed = RunMix(1, 1, SchedulerKind::kInterStatic);
  const Workload* wl = WorkloadRegistry::Get().Find("GESUM");
  E2eOutcome homo = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterStatic);
  EXPECT_GT(mixed.result.worker_utilization, homo.result.worker_utilization);
}

TEST(E2eHeterogeneous, FullyGatedLoadsStillVerify) {
  FlashAbacusConfig cfg = TestDeviceConfig();
  cfg.load_stream_fraction = 1.0;  // disable streamed tails
  MixOutcome out = RunMix(2, 1, SchedulerKind::kIntraOutOfOrder, cfg);
  ASSERT_TRUE(out.run_done);
  EXPECT_TRUE(out.AllVerified());
}

TEST(E2eHeterogeneous, StreamingImprovesDataIntensiveThroughput) {
  const Workload* wl = WorkloadRegistry::Get().Find("MVT");
  FlashAbacusConfig gated = TestDeviceConfig();
  gated.model_scale = 1.0 / 64.0;
  gated.load_stream_fraction = 1.0;
  FlashAbacusConfig streamed = gated;
  streamed.load_stream_fraction = 0.2;
  E2eOutcome g = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterDynamic, gated);
  E2eOutcome s = RunOnFlashAbacus(*wl, 6, SchedulerKind::kInterDynamic, streamed);
  EXPECT_LT(s.result.makespan, g.result.makespan);
}

TEST(E2eHeterogeneous, MoreWorkersDoNotSlowThingsDown) {
  FlashAbacusConfig small = TestDeviceConfig();
  small.num_lwps = 4;
  FlashAbacusConfig big = TestDeviceConfig();
  big.num_lwps = 10;
  MixOutcome a = RunMix(3, 1, SchedulerKind::kIntraOutOfOrder, small);
  MixOutcome b = RunMix(3, 1, SchedulerKind::kIntraOutOfOrder, big);
  EXPECT_TRUE(a.AllVerified());
  EXPECT_TRUE(b.AllVerified());
  EXPECT_LE(b.result.makespan, a.result.makespan);
}

TEST(E2eHeterogeneous, TwentyFourInstanceMixCompletesAndVerifies) {
  MixOutcome out = RunMix(1, 4, SchedulerKind::kIntraOutOfOrder);
  ASSERT_TRUE(out.run_done);
  EXPECT_EQ(out.result.completion_times.size(), 24u);
  EXPECT_TRUE(out.AllVerified());
}

TEST(E2eHeterogeneous, StressManyInstancesOnSmallFlash) {
  // 72 kernels over six workers on a small flash geometry: exercises queue
  // depths, write-buffer stalls and GC under sustained multi-kernel load.
  FlashAbacusConfig cfg = TestDeviceConfig();
  cfg.nand.blocks_per_plane = 64;
  cfg.nand.pages_per_block = 32;
  cfg.flashvisor.write_buffer_bytes = 8ULL << 20;
  MixOutcome out = RunMix(5, 12, SchedulerKind::kIntraOutOfOrder, cfg);
  ASSERT_TRUE(out.run_done);
  EXPECT_EQ(out.result.completion_times.size(), 72u);
  EXPECT_TRUE(out.AllVerified());
}

}  // namespace
}  // namespace fabacus

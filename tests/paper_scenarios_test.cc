// Scenario tests reproducing the paper's worked examples:
//  * Fig 5 — static vs dynamic inter-kernel scheduling of two applications
//    with two kernels each (k1/k3 wait behind k0/k2 under InterSt; run in
//    parallel under InterDy).
//  * Fig 7 — in-order vs out-of-order intra-kernel scheduling (screens cut
//    individual kernel latency; O3 borrows screens across kernels).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/host/offload_runtime.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

FlashAbacusConfig ScenarioConfig() {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.model_scale = 1.0 / 64.0;
  return cfg;
}

// Two applications (app 0 and app 2 in the figure; ids 0 and 1 here), two
// identical kernels each — the Fig 5 setup. io_free synthetic kernels keep
// the comparison about scheduling, not storage.
std::vector<OffloadRuntime::Job> Fig5Jobs(const Workload* kernel) {
  return {{kernel, 2}, {kernel, 2}};
}

TEST(PaperFig5, StaticSerializesKernelsOfOneApp) {
  auto kernel = MakeSynthetic(0.0, 640.0, /*io_free=*/true);
  OffloadRuntime rt(ScenarioConfig());
  const RunReport r = rt.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kInterStatic);
  // Each app's two kernels share one LWP: the second completes ~2x after the
  // first (Fig 5b's timing diagram).
  std::vector<Tick> t = r.completion_times;
  std::sort(t.begin(), t.end());
  ASSERT_EQ(t.size(), 4u);
  // Two "first kernels" complete together, then two "second kernels".
  EXPECT_NEAR(static_cast<double>(t[1]), static_cast<double>(t[0]),
              0.15 * static_cast<double>(t[0]));
  EXPECT_GT(t[3], t[0] * 17 / 10);
}

TEST(PaperFig5, DynamicRunsSecondKernelsInParallel) {
  auto kernel = MakeSynthetic(0.0, 640.0, /*io_free=*/true);
  OffloadRuntime rt_static(ScenarioConfig());
  OffloadRuntime rt_dynamic(ScenarioConfig());
  const RunReport st = rt_static.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kInterStatic);
  const RunReport dy =
      rt_dynamic.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kInterDynamic);
  // Fig 5c: k1 and k3 run on the idle LWPs, cutting their latency; the whole
  // batch finishes in about half the static time (4 kernels, 6 workers).
  EXPECT_LT(dy.makespan, st.makespan * 2 / 3);
  EXPECT_LT(dy.KernelLatencyMs().max, st.KernelLatencyMs().max * 0.7);
}

TEST(PaperFig7, IntraSchedulingCutsSingleKernelLatency) {
  // Fig 7b: screens of one kernel spread over multiple LWPs, so the first
  // kernel completes earlier than under kernel-granular scheduling.
  auto kernel = MakeSynthetic(0.0, 640.0, /*io_free=*/true);
  OffloadRuntime rt_inter(ScenarioConfig());
  OffloadRuntime rt_intra(ScenarioConfig());
  const RunReport inter =
      rt_inter.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kInterDynamic);
  const RunReport intra =
      rt_intra.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kIntraInOrder);
  const Tick inter_first =
      *std::min_element(inter.completion_times.begin(), inter.completion_times.end());
  const Tick intra_first =
      *std::min_element(intra.completion_times.begin(), intra.completion_times.end());
  EXPECT_LT(intra_first, inter_first);
}

TEST(PaperFig7, OutOfOrderBorrowsScreensAcrossSerialMicroblocks) {
  // Fig 7c: with serial microblocks in the mix, IntraIo idles LWPs at its
  // global barrier while IntraO3 pulls screens from other kernels.
  auto kernel = MakeSynthetic(0.4, 640.0, /*io_free=*/true);
  OffloadRuntime rt_io(ScenarioConfig());
  OffloadRuntime rt_o3(ScenarioConfig());
  const RunReport io = rt_io.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kIntraInOrder);
  const RunReport o3 =
      rt_o3.Execute(Fig5Jobs(kernel.get()), SchedulerKind::kIntraOutOfOrder);
  EXPECT_LT(o3.makespan, io.makespan);
  EXPECT_TRUE(rt_io.VerifyLast());
  EXPECT_TRUE(rt_o3.VerifyLast());
}

TEST(PaperFig7, AllSchedulersComputeIdenticalResults) {
  auto kernel = MakeSynthetic(0.3, 640.0, /*io_free=*/true);
  for (SchedulerKind kind : {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                             SchedulerKind::kIntraInOrder, SchedulerKind::kIntraOutOfOrder}) {
    OffloadRuntime rt(ScenarioConfig());
    rt.Execute(Fig5Jobs(kernel.get()), kind);
    EXPECT_TRUE(rt.VerifyLast()) << SchedulerKindName(kind);
  }
}

}  // namespace
}  // namespace fabacus

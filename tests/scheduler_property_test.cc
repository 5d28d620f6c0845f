// Randomized scheduler property tests: arbitrary synthetic kernel structures
// (random microblock counts, serial flags, work splits) run under every
// scheduler on the full device, checking the invariants that must hold for
// any schedule:
//  * every instance completes exactly once, after its load and compute;
//  * verified functional output regardless of screen interleaving;
//  * per-worker busy intervals never overlap (no double booking);
//  * all four schedulers agree on the total amount of modelled compute.
#include <gtest/gtest.h>

#include <memory>

#include "src/host/offload_runtime.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

class SchedulerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPropertyTest, RandomKernelsSatisfyInvariantsUnderAllSchedulers) {
  RandomWorkload wl_a(GetParam());
  RandomWorkload wl_b(GetParam() + 1000);
  const SchedulerKind kinds[] = {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                                 SchedulerKind::kIntraInOrder,
                                 SchedulerKind::kIntraOutOfOrder};
  for (SchedulerKind kind : kinds) {
    FlashAbacusConfig cfg = FlashAbacusConfig::Small();
    OffloadRuntime rt(cfg);
    const RunReport r = rt.Execute({{&wl_a, 2}, {&wl_b, 2}}, kind);

    // Completion invariants.
    ASSERT_EQ(r.completion_times.size(), 4u) << SchedulerKindName(kind);
    for (AppInstance* inst : rt.last_instances()) {
      EXPECT_TRUE(inst->done);
      EXPECT_GE(inst->compute_done_time, inst->load_done_time);
      EXPECT_GE(inst->complete_time, inst->compute_done_time);
    }
    // Functional invariants (any legal interleaving computes the same).
    EXPECT_TRUE(rt.VerifyLast()) << SchedulerKindName(kind);

    // No worker double-booking: busy intervals are disjoint per LWP.
    for (int w = 0; w < rt.device().num_workers(); ++w) {
      const auto& ivs = rt.device().worker(w).busy_intervals();
      for (std::size_t i = 1; i < ivs.size(); ++i) {
        EXPECT_GE(ivs[i].first, ivs[i - 1].second) << "worker " << w;
      }
    }
  }
}

TEST_P(SchedulerPropertyTest, TotalComputeIdenticalAcrossSchedulers) {
  RandomWorkload wl(GetParam());
  Tick first_total = 0;
  for (SchedulerKind kind :
       {SchedulerKind::kInterDynamic, SchedulerKind::kIntraOutOfOrder}) {
    FlashAbacusConfig cfg = FlashAbacusConfig::Small();
    cfg.record_full_trace = true;  // the assertion reads kLwpCompute intervals
    OffloadRuntime rt(cfg);
    const RunReport r = rt.Execute({{&wl, 3}}, kind);
    const Tick total = r.trace.TotalTime(TraceTag::kLwpCompute);
    if (first_total == 0) {
      first_total = total;
    } else {
      // Same modelled work split differently: totals within 25% (intra modes
      // pay per-screen memory-stall rounding, not different work).
      EXPECT_NEAR(static_cast<double>(total), static_cast<double>(first_total),
                  0.25 * static_cast<double>(first_total));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

}  // namespace
}  // namespace fabacus

// Tests for the multi-app execution chain: microblock ordering, screen
// readiness under the in-order and out-of-order policies, walks in a
// weighted-fair preference order, and completion bookkeeping (paper §4.2,
// Figure 8).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "src/core/execution_chain.h"
#include "src/sim/rng.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

class ChainFixture : public ::testing::Test {
 protected:
  AppInstance* AddApp(const char* workload, int fanout, bool load_done = true) {
    const Workload* wl = WorkloadRegistry::Get().Find(workload);
    instances_.push_back(
        std::make_unique<AppInstance>(static_cast<int>(instances_.size()), 0, &wl->spec(),
                                      1.0 / 256));
    AppInstance* inst = instances_.back().get();
    chain_.AddApp(inst, fanout);
    if (load_done) {
      chain_.MarkLoadDone(inst);
    }
    return inst;
  }

  // Dispatches and completes every screen of the current microblock of inst.
  void DrainCurrentMicroblock(AppInstance* inst) {
    ScreenRef ref;
    std::vector<ScreenRef> dispatched;
    while (chain_.NextReadyScreen(&ref) && ref.inst == inst) {
      chain_.OnDispatched(ref);
      dispatched.push_back(ref);
    }
    for (const ScreenRef& r : dispatched) {
      chain_.OnScreenComplete(r);
    }
  }

  ExecutionChain chain_;
  std::vector<std::unique_ptr<AppInstance>> instances_;
};

TEST_F(ChainFixture, SerialMicroblockGetsOneScreen) {
  AppInstance* inst = AddApp("ATAX", 6);  // mblk0 parallel, mblk1 serial
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  EXPECT_EQ(ref.num_screens, 6);
  DrainCurrentMicroblock(inst);
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  EXPECT_EQ(ref.mblk, 1);
  EXPECT_EQ(ref.num_screens, 1);  // serial
}

TEST_F(ChainFixture, MicroblockBarrierWithinKernel) {
  AddApp("FDTD", 4);
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  EXPECT_EQ(ref.mblk, 0);
  chain_.OnDispatched(ref);
  // mblk0 is serial (1 screen), still in flight: nothing else from this app.
  ScreenRef next;
  EXPECT_FALSE(chain_.NextReadyScreen(&next));
  EXPECT_FALSE(chain_.OnScreenComplete(ref));
  ASSERT_TRUE(chain_.NextReadyScreen(&next));
  EXPECT_EQ(next.mblk, 1);
}

TEST_F(ChainFixture, LoadGatesReadiness) {
  AppInstance* inst = AddApp("GESUM", 4, /*load_done=*/false);
  ScreenRef ref;
  EXPECT_FALSE(chain_.NextReadyScreen(&ref));
  chain_.MarkLoadDone(inst);
  EXPECT_TRUE(chain_.NextReadyScreen(&ref));
}

TEST_F(ChainFixture, OutOfOrderBorrowsAcrossApps) {
  AppInstance* a = AddApp("ATAX", 2);
  AddApp("GESUM", 2);
  // Dispatch all of a's current screens; they are still running.
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  ASSERT_EQ(ref.inst, a);
  chain_.OnDispatched(ref);
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  ASSERT_EQ(ref.inst, a);
  chain_.OnDispatched(ref);
  // O3 policy: next ready screen comes from the second app.
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  EXPECT_NE(ref.inst, a);
}

TEST_F(ChainFixture, InOrderPolicyBlocksAtGlobalHead) {
  AppInstance* a = AddApp("ATAX", 2);
  AddApp("GESUM", 2);
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref));
  ASSERT_EQ(ref.inst, a);
  chain_.OnDispatched(ref);
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref));
  ASSERT_EQ(ref.inst, a);
  chain_.OnDispatched(ref);
  // Head microblock fully dispatched but incomplete: in-order stalls, no
  // borrowing from the second app.
  EXPECT_FALSE(chain_.NextReadyScreenInOrder(&ref));
}

TEST_F(ChainFixture, InOrderAdvancesToNextAppWhenHeadFinishes) {
  AppInstance* a = AddApp("GESUM", 2);  // single microblock
  AppInstance* b = AddApp("GESUM", 2);
  DrainCurrentMicroblock(a);
  EXPECT_TRUE(chain_.ComputeDone(a));
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref));
  EXPECT_EQ(ref.inst, b);
}

TEST_F(ChainFixture, CompletionReportedOnceOnLastScreen) {
  AppInstance* inst = AddApp("GESUM", 3);
  ScreenRef refs[3];
  for (auto& r : refs) {
    ASSERT_TRUE(chain_.NextReadyScreen(&r));
    chain_.OnDispatched(r);
  }
  EXPECT_FALSE(chain_.OnScreenComplete(refs[0]));
  EXPECT_FALSE(chain_.OnScreenComplete(refs[1]));
  EXPECT_TRUE(chain_.OnScreenComplete(refs[2]));
  EXPECT_TRUE(chain_.AllComputeDone());
  EXPECT_FALSE(chain_.AnyInFlight());
  (void)inst;
}

TEST_F(ChainFixture, AllComputeDoneAcrossManyApps) {
  for (int i = 0; i < 5; ++i) {
    AddApp("FDTD", 4);
  }
  ScreenRef ref;
  while (chain_.NextReadyScreen(&ref)) {
    chain_.OnDispatched(ref);
    chain_.OnScreenComplete(ref);
  }
  EXPECT_TRUE(chain_.AllComputeDone());
}


TEST_F(ChainFixture, PreferenceOrderDispatchesPreferredReadyAppFirst) {
  AppInstance* a = AddApp("GESUM", 2);
  AppInstance* b = AddApp("GESUM", 2);
  AppInstance* c = AddApp("GESUM", 2, /*load_done=*/false);
  const std::vector<int> order = {2, 1, 0};
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreen(&ref));
  EXPECT_EQ(ref.inst, a);  // no order: arrival order
  // c is preferred but still loading, so the walk takes the next preferred app.
  ASSERT_TRUE(chain_.NextReadyScreen(&ref, &order));
  EXPECT_EQ(ref.inst, b);
  chain_.MarkLoadDone(c);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(chain_.NextReadyScreen(&ref, &order));
    EXPECT_EQ(ref.inst, c);
    chain_.OnDispatched(ref);
  }
  // Every screen of c is in flight: out-of-order borrows from b, not a.
  ASSERT_TRUE(chain_.NextReadyScreen(&ref, &order));
  EXPECT_EQ(ref.inst, b);
}

TEST_F(ChainFixture, InOrderBarrierFollowsPreferenceOrder) {
  AppInstance* a = AddApp("GESUM", 2);  // single microblock
  AppInstance* b = AddApp("GESUM", 2);
  AppInstance* c = AddApp("GESUM", 2);
  const std::vector<int> order = {1, 2, 0};
  ScreenRef ref;
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref));
  EXPECT_EQ(ref.inst, a);  // no order: the barrier sits at the first arrival
  ScreenRef refs[2];
  for (ScreenRef& r : refs) {
    ASSERT_TRUE(chain_.NextReadyScreenInOrder(&r, &order));
    EXPECT_EQ(r.inst, b);
    chain_.OnDispatched(r);
  }
  // b's screens are in flight: the barrier holds a and c, though both are ready.
  EXPECT_FALSE(chain_.NextReadyScreenInOrder(&ref, &order));
  EXPECT_FALSE(chain_.OnScreenComplete(refs[0]));
  EXPECT_FALSE(chain_.NextReadyScreenInOrder(&ref, &order));
  EXPECT_TRUE(chain_.OnScreenComplete(refs[1]));
  // b is finished: the barrier moves to the next preferred unfinished app.
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref, &order));
  EXPECT_EQ(ref.inst, c);
  ASSERT_TRUE(chain_.NextReadyScreenInOrder(&ref));
  EXPECT_EQ(ref.inst, a);
}

// An explicit arrival order must walk exactly like no order, step for step,
// under both policies: two chains over the same instances are driven by one
// seeded stream of load completions, dispatches and screen completions.
TEST(ChainOrderTest, ArrivalOrderMatchesDefaultWalk) {
  const char* const kApps[] = {"ATAX", "GESUM", "FDTD", "MVT", "GEMM"};
  for (const bool in_order : {false, true}) {
    SCOPED_TRACE(in_order ? "in-order" : "out-of-order");
    Rng rng(20181);
    std::vector<std::unique_ptr<AppInstance>> instances;
    ExecutionChain by_default;
    ExecutionChain by_order;
    for (int i = 0; i < 12; ++i) {
      const Workload* wl = WorkloadRegistry::Get().Find(kApps[rng.NextBelow(5)]);
      instances.push_back(std::make_unique<AppInstance>(i, 0, &wl->spec(), 1.0 / 256));
      const int fanout = 1 + static_cast<int>(rng.NextBelow(6));
      by_default.AddApp(instances.back().get(), fanout);
      by_order.AddApp(instances.back().get(), fanout);
    }
    std::vector<int> arrival(instances.size());
    std::iota(arrival.begin(), arrival.end(), 0);
    std::vector<ScreenRef> in_flight;
    int dispatched = 0;
    for (int step = 0; step < 100000 && !by_default.AllComputeDone(); ++step) {
      const std::uint64_t op = rng.NextBelow(3);
      if (op == 0) {
        AppInstance* inst = instances[rng.NextBelow(instances.size())].get();
        by_default.MarkLoadDone(inst);
        by_order.MarkLoadDone(inst);
      } else if (op == 1) {
        ScreenRef x;
        ScreenRef y;
        const bool found_x =
            in_order ? by_default.NextReadyScreenInOrder(&x) : by_default.NextReadyScreen(&x);
        const bool found_y = in_order ? by_order.NextReadyScreenInOrder(&y, &arrival)
                                      : by_order.NextReadyScreen(&y, &arrival);
        ASSERT_EQ(found_x, found_y);
        if (found_x) {
          ASSERT_EQ(x.inst, y.inst);
          ASSERT_EQ(x.mblk, y.mblk);
          ASSERT_EQ(x.screen, y.screen);
          ASSERT_EQ(x.num_screens, y.num_screens);
          by_default.OnDispatched(x);
          by_order.OnDispatched(y);
          in_flight.push_back(x);
          ++dispatched;
        }
      } else if (!in_flight.empty()) {
        const std::size_t k = rng.NextBelow(in_flight.size());
        const ScreenRef done = in_flight[k];
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(k));
        ASSERT_EQ(by_default.OnScreenComplete(done), by_order.OnScreenComplete(done));
      }
    }
    EXPECT_TRUE(by_default.AllComputeDone());
    EXPECT_TRUE(by_order.AllComputeDone());
    EXPECT_GT(dispatched, 12);
  }
}

}  // namespace
}  // namespace fabacus

// Unit tests for the simulation core: event queue, simulator, statistics and
// the shared bandwidth-resource primitive.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/resource.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace fabacus {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&]() { order.push_back(3); });
  q.Push(10, [&]() { order.push_back(1); });
  q.Push(20, [&]() { order.push_back(2); });
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.Push(5, [&order, i]() { order.push_back(i); });
  }
  Tick when = 0;
  while (!q.empty()) {
    q.Pop(&when)();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, AdvancesClockMonotonically) {
  Simulator sim;
  Tick seen = 0;
  sim.Schedule(100, [&]() {
    EXPECT_EQ(sim.Now(), 100u);
    seen = sim.Now();
    sim.Schedule(50, [&]() { seen = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 150u);
  EXPECT_EQ(sim.Now(), 150u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&]() { ++fired; });
  sim.Schedule(20, [&]() { ++fired; });
  sim.Schedule(30, [&]() { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) {
      sim.Schedule(1, recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 9u);
}

TEST(BusyTracker, NestedDemandCountsUnionOnce) {
  BusyTracker t;
  t.Enter(10);
  t.Enter(20);   // overlapping demand
  t.Leave(30);
  t.Leave(50);
  EXPECT_EQ(t.BusyTime(60), 40u);  // [10, 50) once
  EXPECT_DOUBLE_EQ(t.Utilization(80), 0.5);
}

TEST(BusyTracker, OpenIntervalCountsUpToNow) {
  BusyTracker t;
  t.Enter(100);
  EXPECT_EQ(t.BusyTime(150), 50u);
}

TEST(SummarizeSamples, PercentilesAndMoments) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(i);
  }
  const HistogramSummary s = SummarizeSamples(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p99, 99.01, 0.01);
}

TEST(BoundedTimeSeries, RebucketHoldsLastValue) {
  BoundedTimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(450, 3.0);
  const std::vector<double> buckets = ts.Rebucket(1000, 10);
  EXPECT_DOUBLE_EQ(buckets[0], 1.0);
  EXPECT_DOUBLE_EQ(buckets[4], 3.0);
  EXPECT_DOUBLE_EQ(buckets[9], 3.0);  // zero-order hold
}

TEST(BandwidthResource, SerializesBackToBackTransfers) {
  BandwidthResource r("link", 1.0);  // 1 GB/s => 1 byte per ns
  const auto a = r.Reserve(0, 1000);
  EXPECT_EQ(a.start, 0u);
  EXPECT_EQ(a.end, 1000u);
  const auto b = r.Reserve(0, 500);
  EXPECT_EQ(b.start, 1000u);  // queued behind a
  EXPECT_EQ(b.end, 1500u);
}

TEST(BandwidthResource, LatencyAddsPerTransfer) {
  BandwidthResource r("link", 1.0, 100);
  const auto a = r.Reserve(0, 1000);
  EXPECT_EQ(a.end, 1100u);
}

TEST(BandwidthResource, TracksBytesAndUtilization) {
  BandwidthResource r("link", 2.0);
  r.Reserve(0, 2000);  // 1000 ns
  EXPECT_DOUBLE_EQ(r.bytes_moved(), 2000.0);
  EXPECT_DOUBLE_EQ(r.Utilization(2000), 0.5);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(TimeHelpers, BytesAtGBps) {
  EXPECT_EQ(BytesAtGBps(1e9, 1.0), 1000000000u);  // 1 GB at 1 GB/s = 1 s
  EXPECT_EQ(BytesAtGBps(6400, 6.4), 1000u);
}

TEST(Rng, NextBelowIsUniformForSmallBounds) {
  // Distribution sanity: every residue of a small bound lands close to its
  // expected share.
  Rng r(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[r.NextBelow(kBuckets)];
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_GT(counts[b], kDraws / kBuckets * 0.9) << "bucket " << b;
    EXPECT_LT(counts[b], kDraws / kBuckets * 1.1) << "bucket " << b;
  }
}

TEST(Rng, NextBelowHasNoModuloBiasForHugeBounds) {
  // n = 3 * 2^62: plain `Next() % n` would hit [0, 2^62) twice as often as
  // the rest (2^64 mod n = 2^62). Rejection sampling must keep the low
  // quarter of the range at its fair 1/3 share, not the biased 1/2.
  const std::uint64_t n = 3ULL << 62;
  const std::uint64_t low_cut = 1ULL << 62;
  Rng r(1234);
  constexpr int kDraws = 30000;
  int low = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = r.NextBelow(n);
    ASSERT_LT(v, n);
    if (v < low_cut) {
      ++low;
    }
  }
  // Fair share is 1/3 (10000); the biased sampler would give 1/2 (15000).
  EXPECT_GT(low, kDraws / 3 - 1000);
  EXPECT_LT(low, kDraws / 3 + 1000);
}

TEST(Rng, NextBelowEdgeCases) {
  Rng r(5);
  EXPECT_EQ(r.NextBelow(0), 0u);
  EXPECT_EQ(r.NextBelow(1), 0u);
  Rng a(77);
  Rng b(77);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextBelow(1000003), b.NextBelow(1000003));
  }
}

}  // namespace
}  // namespace fabacus

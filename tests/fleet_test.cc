// Locks down the fleet serving layer (src/fleet/, docs/FLEET.md):
//  * traffic generation is deterministic per (seed, config) and well-formed,
//  * the admission queue bounds depth and counts rejections,
//  * every placement policy enumerates all devices across retry attempts and
//    honors its documented invariants,
//  * end-to-end fleet runs conserve requests (served + shed == offered, and
//    FleetReport::Audit names a broken invariant), verify outputs, and
//    produce byte-identical reports across the lockstep and partitioned
//    execution paths at any sweep thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/sim/json.h"

namespace fabacus {
namespace {

TrafficConfig SmallOpenLoop(std::uint64_t seed = 7) {
  TrafficConfig t;
  t.model = TrafficConfig::Model::kOpenLoop;
  t.seed = seed;
  t.num_clients = 4;
  t.arrival_rate_per_s = 400.0;
  t.total_requests = 24;
  return t;
}

FleetConfig SmallFleet(int devices = 2) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.traffic = SmallOpenLoop();
  cfg.max_route_attempts = 1;
  return cfg;
}

std::vector<std::string> ScheduleSignature(const std::vector<FleetRequest>& reqs) {
  std::vector<std::string> sig;
  for (const FleetRequest& r : reqs) {
    sig.push_back(std::to_string(r.id) + "/" + std::to_string(r.client_id) + "/" +
                  std::to_string(r.workload_idx) + "@" + std::to_string(r.arrival));
  }
  return sig;
}

TEST(Traffic, OpenLoopScheduleIsWellFormed) {
  TrafficGenerator gen(SmallOpenLoop());
  const std::vector<FleetRequest> reqs = gen.InitialArrivals();
  ASSERT_EQ(reqs.size(), 24u);
  EXPECT_EQ(gen.total_requests(), 24);
  Tick prev = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, static_cast<int>(i)) << "ids follow submission order";
    EXPECT_EQ(reqs[i].client_id, static_cast<int>(i) % 4) << "open loop round-robins clients";
    EXPECT_GE(reqs[i].arrival, prev) << "arrivals are non-decreasing";
    EXPECT_GE(reqs[i].workload_idx, 0);
    EXPECT_LT(reqs[i].workload_idx, static_cast<int>(gen.mix().size()));
    prev = reqs[i].arrival;
  }
  // An open-loop generator never produces follow-up requests.
  FleetRequest next;
  EXPECT_FALSE(gen.NextForClient(0, prev + kMs, &next));
}

TEST(Traffic, SameSeedSameSchedule_DifferentSeedDifferentSchedule) {
  TrafficGenerator a(SmallOpenLoop(7));
  TrafficGenerator b(SmallOpenLoop(7));
  TrafficGenerator c(SmallOpenLoop(8));
  const auto sig_a = ScheduleSignature(a.InitialArrivals());
  const auto sig_b = ScheduleSignature(b.InitialArrivals());
  const auto sig_c = ScheduleSignature(c.InitialArrivals());
  EXPECT_EQ(sig_a, sig_b) << "identical seeds must replay the identical schedule";
  EXPECT_NE(sig_a, sig_c) << "a different seed must perturb the schedule";
}

TEST(Traffic, ClosedLoopHonorsPerClientQuota) {
  TrafficConfig t;
  t.model = TrafficConfig::Model::kClosedLoop;
  t.num_clients = 3;
  t.requests_per_client = 2;
  TrafficGenerator gen(t);
  const std::vector<FleetRequest> first = gen.InitialArrivals();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(gen.total_requests(), 6);
  for (const FleetRequest& r : first) {
    FleetRequest next;
    ASSERT_TRUE(gen.NextForClient(r.client_id, r.arrival + kMs, &next));
    EXPECT_EQ(next.client_id, r.client_id);
    EXPECT_GE(next.arrival, r.arrival + kMs) << "think time keeps arrivals in the future";
    // Quota exhausted: two requests per client have now been emitted.
    EXPECT_FALSE(gen.NextForClient(r.client_id, next.arrival + kMs, &next));
  }
}

TEST(Traffic, ValidateRejectsBadConfigs) {
  TrafficConfig t = SmallOpenLoop();
  t.arrival_rate_per_s = 0.0;
  EXPECT_FALSE(t.Validate().empty());
  t = SmallOpenLoop();
  t.mix.push_back({"NOT_A_WORKLOAD", 1.0});
  EXPECT_FALSE(t.Validate().empty());
  t = SmallOpenLoop();
  t.num_clients = 0;
  EXPECT_FALSE(t.Validate().empty());
  EXPECT_TRUE(SmallOpenLoop().Validate().empty());
}

TEST(AdmissionQueue, BoundsDepthAndCountsRejections) {
  AdmissionQueue q(2);
  FleetRequest a, b, c;
  EXPECT_TRUE(q.TryEnqueue(&a, 10));
  EXPECT_TRUE(q.TryEnqueue(&b, 20));
  EXPECT_FALSE(q.TryEnqueue(&c, 30)) << "third request exceeds max_depth=2";
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.enqueued(), 2u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.peak_depth(), 2u);
  EXPECT_EQ(q.Dequeue(40), &a) << "FIFO order";
  EXPECT_TRUE(q.TryEnqueue(&c, 50)) << "a freed slot admits again";
  EXPECT_EQ(q.Dequeue(60), &b);
  EXPECT_EQ(q.Dequeue(70), &c);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.depth_series().empty());
}

TEST(ShardRouter, RoundRobinRotatesAndRetriesProbeAllDevices) {
  ShardRouter router(PlacementPolicy::kRoundRobin, 4);
  const std::vector<int> zeros(4, 0);
  FleetRequest r;
  std::set<int> first_choices;
  for (int i = 0; i < 4; ++i) {
    first_choices.insert(router.Route(r, zeros, 0));
  }
  EXPECT_EQ(first_choices.size(), 4u) << "four consecutive requests visit four devices";
  // A single request's retry attempts must enumerate every device once.
  ShardRouter fresh(PlacementPolicy::kRoundRobin, 4);
  std::set<int> attempts;
  const int primary = fresh.Route(r, zeros, 0);
  attempts.insert(primary);
  for (int a = 1; a < 4; ++a) {
    attempts.insert(fresh.Route(r, zeros, a));
  }
  EXPECT_EQ(attempts.size(), 4u);
}

TEST(ShardRouter, LeastOutstandingPicksMinimumWithIndexTiebreak) {
  ShardRouter router(PlacementPolicy::kLeastOutstanding, 4);
  FleetRequest r;
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 0), 1) << "ties resolve to the lowest index";
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 1), 3) << "attempt 1 = second-least-loaded";
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 2), 2);
  EXPECT_EQ(router.Route(r, {2, 0, 1, 0}, 3), 0);
  EXPECT_FALSE(PolicyIsOblivious(PlacementPolicy::kLeastOutstanding));
}

TEST(ShardRouter, DataAffinityIsStablePerWorkloadAndCoversAllOnRetry) {
  ShardRouter router(PlacementPolicy::kDataAffinity, 4);
  const std::vector<int> zeros(4, 0);
  FleetRequest a, b;
  a.workload_idx = 2;
  b.workload_idx = 2;
  EXPECT_EQ(router.Route(a, zeros, 0), router.Route(b, zeros, 0))
      << "the same workload always routes to its home device";
  std::set<int> attempts;
  for (int at = 0; at < 4; ++at) {
    attempts.insert(router.Route(a, zeros, at));
  }
  EXPECT_EQ(attempts.size(), 4u) << "retries spiral over every device";
  EXPECT_TRUE(PolicyIsOblivious(PlacementPolicy::kDataAffinity));
  EXPECT_TRUE(PolicyIsOblivious(PlacementPolicy::kRoundRobin));
}

void CheckConservation(const FleetReport& rep, std::uint64_t offered) {
  EXPECT_EQ(rep.offered, offered);
  EXPECT_EQ(rep.served + rep.shed, rep.offered) << "every request is served or shed";
  EXPECT_TRUE(rep.verified) << "served outputs must verify functionally";
  EXPECT_EQ(rep.latency_ms.count(), rep.served);
  std::uint64_t dev_served = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    dev_served += d.served;
    EXPECT_EQ(d.latency_ms.count(), d.served);
  }
  EXPECT_EQ(dev_served, rep.served) << "per-device stats partition the served set";
}

TEST(FleetSim, EndToEndServesAndConservesRequests) {
  FleetConfig cfg = SmallFleet(2);
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 24);
  EXPECT_GT(rep.served, 0u);
  EXPECT_GT(rep.makespan, 0);
  EXPECT_GT(rep.throughput_rps, 0.0);
  // The JSON export parses and carries the headline counters.
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(rep.ToJson(), &v, &err)) << err;
  EXPECT_EQ(v["served"].num_v, static_cast<double>(rep.served));
  EXPECT_EQ(v["num_devices"].num_v, 2.0);
  EXPECT_EQ(v["devices"].array_v.size(), 2u);
  EXPECT_TRUE(v["metrics"].is_object());
  EXPECT_EQ(v["metrics"]["fleet/offered"].num_v, 24.0);
}

TEST(FleetSim, OverloadShedsInsteadOfQueueingUnboundedly) {
  FleetConfig cfg = SmallFleet(1);
  cfg.traffic.arrival_rate_per_s = 50000.0;  // far beyond one device's capacity
  cfg.traffic.total_requests = 32;
  cfg.queue_depth = 1;
  cfg.max_batch = 1;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 32);
  EXPECT_GT(rep.shed, 0u) << "a depth-1 queue under overload must shed";
  EXPECT_GT(rep.served, 0u);
  EXPECT_EQ(rep.devices[0].shed, rep.shed);
  EXPECT_LE(rep.devices[0].peak_queue_depth, 1u);
}

// Every Run CHECKs FleetReport::Audit; here the audit passes a real report
// and names the invariant that a report tampered by one request breaks.
TEST(FleetSim, AuditNamesTheBrokenInvariant) {
  FleetConfig cfg = SmallFleet(1);
  cfg.traffic.arrival_rate_per_s = 50000.0;
  cfg.traffic.total_requests = 32;
  cfg.queue_depth = 1;
  cfg.max_batch = 1;
  const FleetReport rep = RunFleet(cfg);
  ASSERT_GT(rep.devices[0].shed, 0u);
  EXPECT_TRUE(rep.Audit().empty()) << ::testing::PrintToString(rep.Audit());

  FleetReport served = rep;
  ++served.served;
  const std::vector<std::string> served_lines = served.Audit();
  ASSERT_FALSE(served_lines.empty());
  EXPECT_EQ(served_lines[0].rfind("offered == served + shed + failed", 0), 0u)
      << served_lines[0];

  FleetReport shed = rep;
  --shed.devices[0].shed;
  const std::vector<std::string> shed_lines = shed.Audit();
  ASSERT_EQ(shed_lines.size(), 1u) << ::testing::PrintToString(shed_lines);
  EXPECT_EQ(shed_lines[0].rfind("device shed sum == shed", 0), 0u) << shed_lines[0];
}

TEST(FleetSim, RerouteRetriesRescueRejectionsAcrossDevices) {
  FleetConfig cfg = SmallFleet(2);
  cfg.traffic.arrival_rate_per_s = 50000.0;
  cfg.traffic.total_requests = 32;
  cfg.queue_depth = 1;
  cfg.max_batch = 1;
  cfg.max_route_attempts = 2;  // forces the lockstep path
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 32);
  EXPECT_EQ(rep.execution, "lockstep");
  EXPECT_GT(rep.route_retries, 0u) << "overload must trigger second-choice placements";
}

TEST(FleetSim, ClosedLoopServesEveryClientQuota) {
  FleetConfig cfg = SmallFleet(2);
  cfg.traffic.model = TrafficConfig::Model::kClosedLoop;
  cfg.traffic.num_clients = 4;
  cfg.traffic.requests_per_client = 3;
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 12);
  EXPECT_EQ(rep.execution, "lockstep") << "closed loop requires the global event loop";
  EXPECT_EQ(rep.shed, 0u) << "one-in-flight clients cannot overflow a depth-16 queue";
  ASSERT_EQ(rep.client_latency_ms.size(), 4u);
  for (const LogHistogram& h : rep.client_latency_ms) {
    EXPECT_EQ(h.count(), 3u) << "each client completes its full quota";
  }
}

TEST(FleetSim, DataAffinityReusesInstalledDatasets) {
  FleetConfig cfg = SmallFleet(2);
  cfg.policy = PlacementPolicy::kDataAffinity;
  cfg.traffic.total_requests = 24;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 24);
  std::uint64_t installs = 0;
  std::uint64_t hits = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    installs += d.installs;
    hits += d.install_hits;
  }
  EXPECT_EQ(installs + hits, rep.served) << "every served request acquired an instance";
  EXPECT_GT(hits, 0u) << "repeat requests must hit the flash-resident dataset cache";
  EXPECT_LT(installs, rep.served) << "affinity routing caps fresh installs well below 1/request";
}

std::string NormalizeExecution(std::string json) {
  const std::string from = "\"execution\":\"lockstep\"";
  const std::string to = "\"execution\":\"partitioned\"";
  const std::size_t pos = json.find(from);
  if (pos != std::string::npos) {
    json.replace(pos, from.size(), to);
  }
  return json;
}

TEST(FleetSim, LockstepAndPartitionedPathsAreByteIdentical) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kDataAffinity}) {
    FleetConfig cfg = SmallFleet(3);
    cfg.policy = policy;
    cfg.traffic.total_requests = 18;
    cfg.execution = FleetConfig::Execution::kLockstep;
    const std::string lockstep = RunFleet(cfg).ToJson();
    cfg.execution = FleetConfig::Execution::kPartitioned;
    cfg.sweep_threads = 3;
    const std::string partitioned = RunFleet(cfg).ToJson();
    EXPECT_EQ(NormalizeExecution(lockstep), partitioned)
        << "paths diverged under policy " << PlacementPolicyName(policy);
  }
}

TEST(FleetSim, SweepThreadCountDoesNotChangeTheReport) {
  FleetConfig cfg = SmallFleet(4);
  cfg.traffic.total_requests = 24;
  cfg.execution = FleetConfig::Execution::kPartitioned;
  cfg.sweep_threads = 1;
  const std::string serial = RunFleet(cfg).ToJson();
  cfg.sweep_threads = 4;
  const std::string parallel = RunFleet(cfg).ToJson();
  EXPECT_EQ(serial, parallel) << "merged fleet reports must be thread-count invariant";
}

TEST(FleetSim, RepeatRunsAreByteIdentical) {
  FleetConfig cfg = SmallFleet(2);
  cfg.policy = PlacementPolicy::kLeastOutstanding;  // lockstep, state-aware
  const std::string first = RunFleet(cfg).ToJson();
  const std::string second = RunFleet(cfg).ToJson();
  EXPECT_EQ(first, second);
}

TEST(FleetSim, SyntheticServiceConservesAndRepeatsByteIdentically) {
  // The synthetic service model (docs/FLEET.md "Scale-out mode") replaces the
  // per-device simulators with a closed-form cost model so scale-out cells can
  // run tens of millions of requests; it must keep the same accounting and
  // determinism contracts as the simulated path.
  FleetConfig cfg = SmallFleet(2);
  cfg.synthetic_service = true;
  cfg.traffic.total_requests = 64;
  FleetReport rep = RunFleet(cfg);
  CheckConservation(rep, 64);
  EXPECT_GT(rep.served, 0u);
  EXPECT_GT(rep.makespan, 0);
  std::uint64_t installs = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    installs += d.installs + d.install_hits;
  }
  EXPECT_EQ(installs, rep.served) << "synthetic serving still models dataset installs";
  const std::string again = RunFleet(cfg).ToJson();
  EXPECT_EQ(rep.ToJson(), again);
}

TEST(FleetSim, SyntheticServiceRejectsFaultPlans) {
  FleetConfig cfg = SmallFleet(2);
  cfg.synthetic_service = true;
  EXPECT_TRUE(cfg.Validate().empty());
  FleetFaultEvent crash;
  crash.kind = FleetFaultEvent::Kind::kCrash;
  crash.shard = 0;
  crash.at = kMs;
  crash.duration = kMs;
  cfg.faults.plan.push_back(crash);
  EXPECT_FALSE(cfg.Validate().empty())
      << "the synthetic model has no device internals for faults to act on";
}

TEST(FleetConfig, ValidateCatchesContradictions) {
  FleetConfig cfg = SmallFleet(2);
  EXPECT_TRUE(cfg.Validate().empty());
  cfg.max_route_attempts = 3;  // more attempts than devices
  EXPECT_FALSE(cfg.Validate().empty());
  cfg = SmallFleet(2);
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  cfg.execution = FleetConfig::Execution::kPartitioned;
  EXPECT_FALSE(cfg.Validate().empty()) << "state-aware routing cannot be partitioned";
  cfg = SmallFleet(2);
  cfg.traffic.model = TrafficConfig::Model::kClosedLoop;
  cfg.execution = FleetConfig::Execution::kPartitioned;
  EXPECT_FALSE(cfg.Validate().empty()) << "closed-loop traffic cannot be partitioned";
}

}  // namespace
}  // namespace fabacus

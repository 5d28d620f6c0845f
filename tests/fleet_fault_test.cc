// Chaos suite for fleet-level fault tolerance (docs/FLEET.md "Fleet fault
// tolerance"):
//  * fault plans materialize deterministically and validate their knobs,
//  * the health tracker / circuit breaker state machine follows its contract,
//  * health-aware routing avoids open shards, feeds half-open shards a probe
//    trickle, and still enumerates every device across attempts,
//  * the router's versioned state blob round-trips and rejects mismatches,
//  * crash + failover + rejoin keeps goodput up (health-aware sheds less
//    than oblivious round-robin, serves >= 90% of the no-fault run),
//  * retries, hedging, timeouts and priority shedding account exactly,
//  * every fault scenario's report is byte-identical across sweep thread
//    counts and repeat runs.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/sim/json.h"

namespace fabacus {
namespace {

TrafficConfig ChaosTraffic(int total = 96, double rate = 600.0, std::uint64_t seed = 11) {
  TrafficConfig t;
  t.model = TrafficConfig::Model::kOpenLoop;
  t.seed = seed;
  t.num_clients = 4;
  t.arrival_rate_per_s = rate;
  t.total_requests = total;
  return t;
}

FleetConfig ChaosFleet(int devices = 4) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.traffic = ChaosTraffic();
  cfg.queue_depth = 64;  // deep enough that only routing refusals shed
  cfg.max_route_attempts = 1;
  return cfg;
}

FleetFaultEvent CrashEvent(int shard, Tick at, Tick downtime) {
  FleetFaultEvent e;
  e.kind = FleetFaultEvent::Kind::kCrash;
  e.shard = shard;
  e.at = at;
  e.duration = downtime;
  return e;
}

void CheckFaultConservation(const FleetReport& rep, std::uint64_t offered) {
  EXPECT_EQ(rep.offered, offered);
  EXPECT_EQ(rep.served + rep.shed + rep.failed, rep.offered)
      << "every request ends served, shed or failed";
  EXPECT_EQ(rep.latency_ms.count(), rep.served);
  std::uint64_t by_pri = 0;
  for (int p = 0; p < kNumPriorities; ++p) {
    EXPECT_EQ(rep.served_by_priority[p] + rep.shed_by_priority[p] + rep.failed_by_priority[p],
              rep.offered_by_priority[p]);
    by_pri += rep.offered_by_priority[p];
  }
  EXPECT_EQ(by_pri, rep.offered) << "priority classes partition the offered set";
}

TEST(FleetFaults, MaterializeIsDeterministicSortedAndNeverDrawsDeath) {
  FleetFaultConfig fc;
  fc.plan.push_back(CrashEvent(2, 9 * kMs, 5 * kMs));
  fc.random_events = 32;
  fc.random_horizon = 50 * kMs;
  ASSERT_TRUE(fc.Validate(4).empty());
  const std::vector<FleetFaultEvent> a = fc.Materialize(4);
  const std::vector<FleetFaultEvent> b = fc.Materialize(4);
  ASSERT_EQ(a.size(), 33u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "identical config must replay identical chaos";
    EXPECT_EQ(a[i].shard, b[i].shard);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_NE(a[i].kind, FleetFaultEvent::Kind::kDeath)
        << "permanent capacity loss is scripted, never random";
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at) << "events are time-sorted";
    }
  }
  FleetFaultConfig other = fc;
  other.seed ^= 1;
  const std::vector<FleetFaultEvent> c = other.Materialize(4);
  bool differs = false;
  for (std::size_t i = 0; i < c.size() && !differs; ++i) {
    differs = c[i].at != a[i].at || c[i].shard != a[i].shard || c[i].kind != a[i].kind;
  }
  EXPECT_TRUE(differs) << "a different seed must draw a different chaos stream";
}

TEST(FleetFaults, ValidateRejectsMalformedPlansAndChaos) {
  FleetFaultConfig fc;
  fc.plan.push_back(CrashEvent(4, kMs, kMs));
  EXPECT_FALSE(fc.Validate(4).empty()) << "shard index out of range";
  fc.plan.clear();
  fc.plan.push_back(CrashEvent(0, kMs, 0));
  EXPECT_FALSE(fc.Validate(4).empty()) << "crash needs a positive downtime";
  fc.plan.clear();
  FleetFaultEvent stall;
  stall.kind = FleetFaultEvent::Kind::kStall;
  stall.stall_factor = 1.0;
  fc.plan.push_back(stall);
  EXPECT_FALSE(fc.Validate(4).empty()) << "a stall factor of 1.0 stalls nothing";
  fc.plan.clear();
  fc.random_events = 8;
  fc.random_horizon = 0;
  EXPECT_FALSE(fc.Validate(4).empty()) << "chaos needs a horizon";
  fc.random_horizon = kMs;
  fc.weight_stall = fc.weight_degrade = fc.weight_crash = 0.0;
  EXPECT_FALSE(fc.Validate(4).empty()) << "all-zero kind weights draw nothing";
}

TEST(Health, TrackerEwmaAndScoreFollowOutcomes) {
  HealthConfig hc;
  HealthTracker t(hc);
  t.OnSuccess(10.0);
  EXPECT_DOUBLE_EQ(t.latency_ewma_ms(), 10.0) << "first sample seeds the EWMA directly";
  EXPECT_EQ(t.consecutive_failures(), 0);
  t.OnSuccess(20.0);
  EXPECT_DOUBLE_EQ(t.latency_ewma_ms(), 10.0 + hc.latency_alpha * 10.0);
  const double healthy_score = t.Score();
  t.OnFailure();
  t.OnFailure();
  EXPECT_EQ(t.consecutive_failures(), 2);
  EXPECT_GT(t.error_ewma(), 0.0);
  EXPECT_GT(t.Score(), healthy_score) << "failures must worsen the routing score";
  t.OnSuccess(20.0);
  EXPECT_EQ(t.consecutive_failures(), 0) << "a success resets the streak";
}

TEST(Health, BreakerOpensOnStrikesCoolsToHalfOpenAndClosesOnProbes) {
  HealthConfig hc;
  hc.strikes_to_open = 2;
  hc.open_cooldown = 10 * kMs;
  hc.probe_successes_to_close = 2;
  CircuitBreaker b(hc);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.OnOutcome(false, 0, 0.1);
  EXPECT_EQ(b.state(), BreakerState::kClosed) << "one strike is not enough";
  b.OnOutcome(false, kMs, 0.1);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.AllowRequest());
  b.Advance(kMs + 5 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kOpen) << "still cooling down";
  b.Advance(kMs + 10 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.AllowRequest());
  b.OnProbeDispatched();
  b.OnProbeDispatched();
  EXPECT_FALSE(b.AllowRequest()) << "probe quota of 2 is exhausted";
  b.OnProbeOutcome(true, 12 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  b.OnProbeOutcome(true, 13 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kClosed) << "two clean probes close the breaker";
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_EQ(b.closes(), 1u);
  EXPECT_EQ(b.probes(), 2u);
}

TEST(Health, ProbeFailureReopensAndForcePathsWork) {
  HealthConfig hc;
  hc.open_cooldown = 10 * kMs;
  CircuitBreaker b(hc);
  b.ForceOpen(0);
  EXPECT_EQ(b.state(), BreakerState::kOpen) << "a crash force-opens immediately";
  b.Advance(10 * kMs);
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  b.OnProbeDispatched();
  b.OnProbeOutcome(false, 11 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kOpen) << "any probe failure reopens";
  b.ForceHalfOpen(20 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen) << "recovery rejoins via probes";
  EXPECT_TRUE(b.AllowRequest());
  // An outcome dispatched before a force-open carries no vote afterwards.
  b.ForceOpen(21 * kMs);
  b.OnProbeOutcome(true, 22 * kMs);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

TEST(ShardRouterFault, HealthAwareAvoidsOpenShardsAndFeedsProbes) {
  ShardRouter router(PlacementPolicy::kHealthAware, 4);
  const std::vector<int> outstanding = {3, 0, 1, 2};
  std::vector<ShardHealthView> views(4);
  views[1].routable = false;  // breaker open / crashed
  RouteState state;
  state.outstanding = &outstanding;
  state.health = &views;
  FleetRequest r;
  EXPECT_EQ(router.Route(r, state, 0), 2) << "least-loaded routable shard wins";
  EXPECT_EQ(router.Route(r, state, 3), 1) << "the open shard comes last";
  // A half-open shard with probe-quota room competes like a closed one, so
  // the recovering device actually receives its probe trickle.
  views[1].routable = true;
  views[1].probing = true;
  EXPECT_EQ(router.Route(r, state, 0), 1) << "idle half-open shard attracts a probe";
  // Quota exhausted: AllowRequest() flipped routable off; it drops to the tail.
  views[1].routable = false;
  EXPECT_EQ(router.Route(r, state, 0), 2);
  // Scores break outstanding ties: shard 2 degraded, shard 3 pristine.
  const std::vector<int> flat = {5, 5, 0, 0};
  state.outstanding = &flat;
  views[1].routable = true;
  views[1].probing = false;
  views[2].score = 40.0;
  views[3].score = 2.0;
  EXPECT_EQ(router.Route(r, state, 0), 3) << "lower EWMA score wins the tie";
}

TEST(ShardRouterFault, EveryPolicyEnumeratesAllShardsEvenWithShardsRemoved) {
  const std::vector<int> outstanding = {1, 4, 0, 2};
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
        PlacementPolicy::kDataAffinity, PlacementPolicy::kHealthAware}) {
    ShardRouter router(policy, 4);
    // Healthy fleet: attempts 0..3 visit four distinct shards.
    RouteState state;
    state.outstanding = &outstanding;
    FleetRequest r;
    std::set<int> visited;
    for (int a = 0; a < 4; ++a) {
      const int d = router.Route(r, state, a);
      EXPECT_GE(d, 0);
      EXPECT_LT(d, 4);
      visited.insert(d);
    }
    EXPECT_EQ(visited.size(), 4u) << PlacementPolicyName(policy);
    // Two shards removed (crashed / breaker open): the full enumeration must
    // survive — unroutable shards move to the tail, never vanish.
    std::vector<ShardHealthView> views(4);
    views[0].routable = false;
    views[2].routable = false;
    state.health = &views;
    visited.clear();
    for (int a = 0; a < 4; ++a) {
      visited.insert(router.Route(r, state, a));
    }
    EXPECT_EQ(visited.size(), 4u)
        << PlacementPolicyName(policy) << " lost shards from its fallback enumeration";
  }
}

TEST(ShardRouterFault, StateBlobRoundTripsPerPolicy) {
  const std::vector<int> zeros(3, 0);
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstanding,
        PlacementPolicy::kDataAffinity, PlacementPolicy::kHealthAware}) {
    ShardRouter a(policy, 3);
    FleetRequest r;
    for (int i = 0; i < 5; ++i) {
      a.Route(r, zeros, 0);  // advance any internal cursor
    }
    StateWriter w;
    a.SaveState(w);
    ShardRouter b(policy, 3);
    StateReader rd(w.buffer());
    b.LoadState(rd);
    ASSERT_TRUE(rd.ok()) << PlacementPolicyName(policy) << ": " << rd.error();
    EXPECT_TRUE(rd.AtEnd()) << "state blob has trailing bytes";
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(a.Route(r, zeros, 0), b.Route(r, zeros, 0))
          << PlacementPolicyName(policy) << " diverged after restore";
    }
  }
}

TEST(ShardRouterFault, StateBlobRejectsVersionAndPolicyMismatch) {
  ShardRouter rr(PlacementPolicy::kRoundRobin, 3);
  StateWriter w;
  rr.SaveState(w);
  // Policy mismatch: a data-affinity router must refuse a round-robin blob.
  ShardRouter affinity(PlacementPolicy::kDataAffinity, 3);
  StateReader mismatch(w.buffer());
  affinity.LoadState(mismatch);
  EXPECT_FALSE(mismatch.ok()) << "policy mismatch must latch an error";
  // Version mismatch: a bumped format byte must be refused, not misparsed.
  std::vector<std::uint8_t> bytes = w.buffer();
  ASSERT_FALSE(bytes.empty());
  bytes[0] = 0xee;
  ShardRouter fresh(PlacementPolicy::kRoundRobin, 3);
  StateReader bad(bytes);
  fresh.LoadState(bad);
  EXPECT_FALSE(bad.ok()) << "unknown format version must latch an error";
}

TEST(FleetConfigFault, ValidateRejectsEachBadKnob) {
  EXPECT_TRUE(ChaosFleet().Validate().empty());
  FleetConfig cfg = ChaosFleet();
  cfg.slo_ms = 0.0;
  EXPECT_FALSE(cfg.Validate().empty()) << "non-positive slo_ms";
  cfg = ChaosFleet();
  cfg.slo_ms = -5.0;
  EXPECT_FALSE(cfg.Validate().empty()) << "negative slo_ms";
  cfg = ChaosFleet();
  cfg.max_batch = 0;
  EXPECT_FALSE(cfg.Validate().empty()) << "max_batch < 1";
  cfg = ChaosFleet();
  cfg.max_route_attempts = 0;
  EXPECT_FALSE(cfg.Validate().empty()) << "max_route_attempts < 1";
  cfg = ChaosFleet();
  cfg.max_route_attempts = cfg.num_devices + 1;
  EXPECT_FALSE(cfg.Validate().empty()) << "more attempts than devices";
  cfg = ChaosFleet();
  cfg.queue_depth = 0;
  EXPECT_FALSE(cfg.Validate().empty()) << "zero queue_depth";
  cfg = ChaosFleet();
  cfg.max_request_retries = -1;
  EXPECT_FALSE(cfg.Validate().empty()) << "negative retry budget";
  cfg = ChaosFleet();
  cfg.max_request_retries = 1;
  cfg.retry_backoff = 0;
  EXPECT_FALSE(cfg.Validate().empty()) << "retries need a positive backoff";
  cfg = ChaosFleet(1);
  cfg.max_route_attempts = 1;
  cfg.hedge_requests = true;
  EXPECT_FALSE(cfg.Validate().empty()) << "hedging needs a second device";
  cfg = ChaosFleet();
  cfg.request_timeout_ms = -1.0;
  EXPECT_FALSE(cfg.Validate().empty()) << "negative timeout";
  cfg = ChaosFleet();
  cfg.health.strikes_to_open = 0;
  EXPECT_FALSE(cfg.Validate().empty()) << "bad health config must surface";
  cfg = ChaosFleet();
  cfg.faults.plan.push_back(CrashEvent(99, kMs, kMs));
  EXPECT_FALSE(cfg.Validate().empty()) << "bad fault plan must surface";
  cfg = ChaosFleet();
  cfg.faults.plan.push_back(CrashEvent(0, kMs, kMs));
  cfg.execution = FleetConfig::Execution::kPartitioned;
  EXPECT_FALSE(cfg.Validate().empty()) << "fault injection cannot be partitioned";
}

// The acceptance scenario: one of four shards crashes mid-run and rejoins
// after its downtime. Health-aware routing sheds strictly less than oblivious
// round-robin and keeps goodput within 10% of the no-fault run.
TEST(FleetChaos, CrashFailoverRejoinBeatsObliviousRouting) {
  FleetConfig base = ChaosFleet(4);
  base.max_request_retries = 2;

  FleetConfig nofault = base;
  nofault.policy = PlacementPolicy::kHealthAware;
  const FleetReport clean = RunFleet(nofault);
  CheckFaultConservation(clean, 96);
  ASSERT_GT(clean.served, 0u);

  FleetConfig faulted = base;
  faulted.faults.plan.push_back(CrashEvent(1, 40 * kMs, 60 * kMs));

  FleetConfig rr = faulted;
  rr.policy = PlacementPolicy::kRoundRobin;
  const FleetReport rr_rep = RunFleet(rr);
  CheckFaultConservation(rr_rep, 96);
  EXPECT_EQ(rr_rep.execution, "lockstep") << "fault injection forces the global loop";
  EXPECT_EQ(rr_rep.crashes, 1u);
  EXPECT_EQ(rr_rep.recoveries, 1u);
  EXPECT_GT(rr_rep.shed, 0u) << "oblivious routing keeps offering to the dead shard";

  FleetConfig ha = faulted;
  ha.policy = PlacementPolicy::kHealthAware;
  const FleetReport ha_rep = RunFleet(ha);
  CheckFaultConservation(ha_rep, 96);
  EXPECT_EQ(ha_rep.crashes, 1u);
  EXPECT_EQ(ha_rep.recoveries, 1u);
  EXPECT_LT(ha_rep.shed, rr_rep.shed) << "health-aware routing must shed less";
  EXPECT_GE(static_cast<double>(ha_rep.served),
            0.9 * static_cast<double>(clean.served))
      << "failover + retries must hold goodput within 10% of the no-fault run";
  EXPECT_GE(ha_rep.availability, 0.9);
  // The crashed shard came back: downtime is bounded and recovery ran.
  const FleetDeviceStats& crashed = ha_rep.devices[1];
  EXPECT_EQ(crashed.crashes, 1u);
  EXPECT_EQ(crashed.recoveries, 1u);
  EXPECT_FALSE(crashed.dead);
  EXPECT_GT(crashed.down_ns, 0);
  EXPECT_GE(crashed.breaker_opens, 1u);
}

TEST(FleetChaos, PermanentDeathServesOnSurvivors) {
  FleetConfig cfg = ChaosFleet(3);
  cfg.policy = PlacementPolicy::kHealthAware;
  cfg.max_request_retries = 2;
  FleetFaultEvent death;
  death.kind = FleetFaultEvent::Kind::kDeath;
  death.shard = 2;
  death.at = 30 * kMs;
  cfg.faults.plan.push_back(death);
  const FleetReport rep = RunFleet(cfg);
  CheckFaultConservation(rep, 96);
  EXPECT_EQ(rep.deaths, 1u);
  EXPECT_EQ(rep.recoveries, 0u) << "a dead shard never rejoins";
  EXPECT_TRUE(rep.devices[2].dead);
  EXPECT_GT(rep.devices[2].down_ns, 0) << "the outage runs to the end of the window";
  EXPECT_GT(rep.served, 0u);
  // The survivors took the load: served work continued after the death tick.
  EXPECT_GT(rep.devices[0].served + rep.devices[1].served, 0u);
}

TEST(FleetChaos, DeathAtTickZeroEmitsEmptySketchesInsteadOfCrashing) {
  // Regression: a shard that dies before serving anything leaves every latency
  // sketch empty. Report building used to crash taking Min/Max/Percentile of
  // zero samples; now empty distributions emit count=0 summaries.
  FleetConfig cfg = ChaosFleet(1);
  cfg.max_route_attempts = 1;
  FleetFaultEvent death;
  death.kind = FleetFaultEvent::Kind::kDeath;
  death.shard = 0;
  death.at = 0;
  cfg.faults.plan.push_back(death);
  const FleetReport rep = RunFleet(cfg);
  CheckFaultConservation(rep, 96);
  EXPECT_EQ(rep.served, 0u) << "the only shard is dead from tick 0";
  EXPECT_EQ(rep.latency_ms.count(), 0u);
  EXPECT_DOUBLE_EQ(rep.latency_ms.Percentile(99), 0.0);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(rep.ToJson(), &v, &err)) << err;
  EXPECT_EQ(v["latency_ms"]["count"].num_v, 0.0);
  EXPECT_EQ(v["latency_ms"]["p99"].num_v, 0.0);
  EXPECT_EQ(v["devices"].array_v.at(0)["latency_ms"]["count"].num_v, 0.0);
}

TEST(FleetChaos, BrownoutInflatesLatencyWithoutLosingRequests) {
  FleetConfig cfg = ChaosFleet(2);
  cfg.traffic.total_requests = 48;
  const FleetReport clean = RunFleet(cfg);

  FleetConfig stalled = cfg;
  FleetFaultEvent stall;
  stall.kind = FleetFaultEvent::Kind::kStall;
  stall.shard = 0;
  stall.at = 0;
  stall.duration = 200 * kMs;  // covers the whole arrival window
  stall.stall_factor = 8.0;
  stalled.faults.plan.push_back(stall);
  const FleetReport rep = RunFleet(stalled);
  CheckFaultConservation(rep, 48);
  EXPECT_EQ(rep.fault_events_applied, 1u);
  EXPECT_EQ(rep.failed, 0u) << "a brownout slows requests, it does not lose them";
  EXPECT_TRUE(rep.verified);
  ASSERT_GT(rep.latency_ms.count(), 0u);
  ASSERT_GT(clean.latency_ms.count(), 0u);
  EXPECT_GT(rep.latency_ms.Max(), clean.latency_ms.Max())
      << "an 8x stall on half the fleet must show up in tail latency";
}

TEST(FleetChaos, DegradeAppliesToTheTargetShardDeterministically) {
  FleetConfig cfg = ChaosFleet(2);
  cfg.traffic.total_requests = 48;
  cfg.max_request_retries = 1;
  FleetFaultEvent degrade;
  degrade.kind = FleetFaultEvent::Kind::kDegrade;
  degrade.shard = 1;
  degrade.at = 5 * kMs;
  degrade.kill_whole_channel = true;
  degrade.kill_channel = 1;
  cfg.faults.plan.push_back(degrade);
  const FleetReport a = RunFleet(cfg);
  CheckFaultConservation(a, 48);
  EXPECT_EQ(a.fault_events_applied, 1u);
  const FleetReport b = RunFleet(cfg);
  EXPECT_EQ(a.ToJson(), b.ToJson()) << "degraded-geometry runs must stay bit-deterministic";
}

TEST(FleetChaos, RetryBudgetRescuesTornRequests) {
  FleetConfig cfg = ChaosFleet(4);
  cfg.policy = PlacementPolicy::kHealthAware;
  cfg.faults.plan.push_back(CrashEvent(1, 40 * kMs, 60 * kMs));

  FleetConfig no_retry = cfg;
  no_retry.max_request_retries = 0;
  const FleetReport without = RunFleet(no_retry);
  CheckFaultConservation(without, 96);

  FleetConfig with_retry = cfg;
  with_retry.max_request_retries = 2;
  const FleetReport with = RunFleet(with_retry);
  CheckFaultConservation(with, 96);

  // Only compare when the crash actually tore something; the schedule is
  // deterministic, so this holds or fails identically on every run.
  if (without.torn_in_flight > 0) {
    EXPECT_GT(without.failed, 0u) << "no budget: torn requests fail for good";
    EXPECT_GT(with.request_retries, 0u);
    EXPECT_LT(with.failed, without.failed) << "the retry budget must rescue torn requests";
  }
  EXPECT_GE(with.served, without.served);
}

TEST(FleetChaos, HedgedRequestsAccountFirstWins) {
  FleetConfig cfg = ChaosFleet(3);
  cfg.policy = PlacementPolicy::kLeastOutstanding;
  cfg.traffic.total_requests = 48;
  cfg.traffic.latency_share = 1.0;  // every request is hedge-eligible
  cfg.hedge_requests = true;
  cfg.hedge_delay = 1 * kMs;  // hedge aggressively so duplicates actually fire
  // Slow one shard so its queue backs up and hedges win races.
  FleetFaultEvent stall;
  stall.kind = FleetFaultEvent::Kind::kStall;
  stall.shard = 0;
  stall.at = 0;
  stall.duration = 400 * kMs;
  stall.stall_factor = 6.0;
  cfg.faults.plan.push_back(stall);
  const FleetReport rep = RunFleet(cfg);
  CheckFaultConservation(rep, 48);
  EXPECT_GT(rep.hedges_issued, 0u) << "queued latency-class requests must hedge";
  EXPECT_LE(rep.hedges_won, rep.hedges_issued);
  // Every issued hedge resolves: either the duplicate wins (primary
  // cancelled) or the primary wins (duplicate cancelled) — first wins, and
  // nobody is counted twice.
  EXPECT_GE(rep.hedges_cancelled, rep.hedges_issued - rep.hedges_won);
  EXPECT_EQ(rep.offered, 48u) << "duplicates never inflate the offered count";
  const FleetReport again = RunFleet(cfg);
  EXPECT_EQ(rep.ToJson(), again.ToJson()) << "hedged runs must stay bit-deterministic";
}

TEST(FleetChaos, PrioritySheddingProtectsLatencyClassUnderOverload) {
  FleetConfig cfg = ChaosFleet(1);
  cfg.traffic = ChaosTraffic(64, 50000.0);  // far beyond one device
  cfg.traffic.latency_share = 0.3;
  cfg.traffic.batch_share = 0.4;
  cfg.queue_depth = 2;
  cfg.max_batch = 1;
  cfg.max_route_attempts = 1;
  cfg.priority_shedding = true;
  // Priority shedding only matters on the lockstep path where faults live.
  cfg.max_request_retries = 1;
  cfg.retry_backoff = 1 * kMs;
  const FleetReport rep = RunFleet(cfg);
  CheckFaultConservation(rep, 64);
  EXPECT_GT(rep.shed, 0u) << "this overload must shed";
  EXPECT_GT(rep.evictions, 0u) << "full queues must evict lower-priority work";
  ASSERT_GT(rep.offered_by_priority[static_cast<int>(RequestPriority::kLatency)], 0u);
  ASSERT_GT(rep.offered_by_priority[static_cast<int>(RequestPriority::kBatch)], 0u);
  const auto loss_rate = [&rep](RequestPriority p) {
    const std::size_t i = static_cast<std::size_t>(p);
    return static_cast<double>(rep.shed_by_priority[i] + rep.failed_by_priority[i]) /
           static_cast<double>(rep.offered_by_priority[i]);
  };
  EXPECT_LT(loss_rate(RequestPriority::kLatency), loss_rate(RequestPriority::kBatch))
      << "overload must displace batch work before latency-class traffic";
}

TEST(FleetChaos, SnapshotRecoveryRestoresFromCheckpoint) {
  FleetConfig cfg = ChaosFleet(2);
  cfg.policy = PlacementPolicy::kHealthAware;
  cfg.traffic.total_requests = 48;
  cfg.max_request_retries = 2;
  cfg.faults.recovery = FleetFaultConfig::Recovery::kSnapshot;
  cfg.faults.checkpoint_every_batches = 2;
  cfg.faults.plan.push_back(CrashEvent(1, 40 * kMs, 40 * kMs));
  const FleetReport rep = RunFleet(cfg);
  CheckFaultConservation(rep, 48);
  EXPECT_EQ(rep.crashes, 1u);
  EXPECT_EQ(rep.recoveries, 1u);
  EXPECT_TRUE(rep.verified) << "requests served off the restored device must verify";
  EXPECT_EQ(rep.devices[1].recovered_lost_groups, 0u)
      << "checkpoint restore replaces the device wholesale; no journal scan ran";
  const FleetReport again = RunFleet(cfg);
  EXPECT_EQ(rep.ToJson(), again.ToJson());
}

// Acceptance: every fault scenario's report is byte-identical across sweep
// thread settings.
TEST(FleetChaos, ReportsAreByteIdenticalAcrossThreads) {
  struct Scenario {
    const char* name;
    FleetFaultEvent event;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario s{"crash-rejoin", CrashEvent(1, 40 * kMs, 60 * kMs)};
    scenarios.push_back(s);
  }
  {
    Scenario s{"death", CrashEvent(1, 40 * kMs, kMs)};
    s.event.kind = FleetFaultEvent::Kind::kDeath;
    scenarios.push_back(s);
  }
  {
    Scenario s{"stall", CrashEvent(0, 10 * kMs, kMs)};
    s.event.kind = FleetFaultEvent::Kind::kStall;
    s.event.duration = 50 * kMs;
    s.event.stall_factor = 4.0;
    scenarios.push_back(s);
  }
  {
    Scenario s{"degrade", CrashEvent(0, 10 * kMs, kMs)};
    s.event.kind = FleetFaultEvent::Kind::kDegrade;
    s.event.kill_whole_channel = true;
    scenarios.push_back(s);
  }
  for (const Scenario& sc : scenarios) {
    FleetConfig cfg = ChaosFleet(3);
    cfg.policy = PlacementPolicy::kHealthAware;
    cfg.traffic.total_requests = 48;
    cfg.max_request_retries = 1;
    cfg.faults.plan.push_back(sc.event);
    cfg.sweep_threads = 1;
    const std::string one_thread = RunFleet(cfg).ToJson();
    cfg.sweep_threads = 4;
    const std::string four_threads = RunFleet(cfg).ToJson();
    EXPECT_EQ(one_thread, four_threads)
        << sc.name << ": sweep thread count leaked into the report";
  }
}

TEST(FleetChaos, ReportJsonCarriesFaultAndPriorityFields) {
  FleetConfig cfg = ChaosFleet(2);
  cfg.policy = PlacementPolicy::kHealthAware;
  cfg.traffic.total_requests = 32;
  cfg.traffic.latency_share = 0.25;
  cfg.max_request_retries = 1;
  cfg.faults.plan.push_back(CrashEvent(1, 20 * kMs, 30 * kMs));
  const FleetReport rep = RunFleet(cfg);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(rep.ToJson(), &v, &err)) << err;
  EXPECT_EQ(v["failed"].num_v, static_cast<double>(rep.failed));
  EXPECT_EQ(v["availability"].num_v, rep.availability);
  ASSERT_TRUE(v["faults"].is_object());
  EXPECT_EQ(v["faults"]["crashes"].num_v, 1.0);
  EXPECT_EQ(v["faults"]["recoveries"].num_v, static_cast<double>(rep.recoveries));
  EXPECT_EQ(v["faults"]["torn_in_flight"].num_v, static_cast<double>(rep.torn_in_flight));
  ASSERT_EQ(v["priorities"].array_v.size(), 3u);
  EXPECT_EQ(v["priorities"].array_v[0]["class"].str_v, "latency");
  ASSERT_EQ(v["devices"].array_v.size(), 2u);
  const JsonValue& d1 = v["devices"].array_v[1];
  EXPECT_EQ(d1["crashes"].num_v, 1.0);
  EXPECT_TRUE(d1["breaker_state"].str_v == "closed" ||
              d1["breaker_state"].str_v == "half-open" || d1["breaker_state"].str_v == "open");
  EXPECT_GE(d1["down_ms"].num_v, 0.0);
  // Metrics hierarchy carries the rollups too.
  EXPECT_EQ(v["metrics"]["fleet/fault/crashes"].num_v, 1.0);
  EXPECT_EQ(v["metrics"]["fleet/availability"].num_v, rep.availability);
}

}  // namespace
}  // namespace fabacus

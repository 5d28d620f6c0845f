// FleetSim: serve synthetic client traffic across N independently-simulated
// FlashAbacus devices (docs/FLEET.md).
//
// Each shard owns a private Simulator + FlashAbacus device plus a bounded
// AdmissionQueue; a ShardRouter places every arrival; admitted requests are
// coalesced into batches (up to `max_batch`) that run on the shard under the
// configured scheduler. Installed workload instances are cached per shard, so
// a request whose dataset is already flash-resident skips the install writes
// — the locality the data-affinity policy exploits.
//
// Execution models, both bit-deterministic per (config, seed):
//  * kLockstep    — one global event loop advances arrivals and batch
//    completions in (time, sequence) order across all shards. Required for
//    closed-loop traffic, state-aware routing and admission re-routing.
//  * kPartitioned — the whole open-loop schedule is routed up front, then
//    every shard simulates its own slice concurrently on a SweepRunner pool,
//    results merging in submission order. Valid only when the routing is
//    oblivious (round-robin / data-affinity, no re-route retries); produces
//    byte-identical reports to kLockstep at any thread count (fleet_test
//    locks both properties down).
//
// Per-client and per-device latency percentiles, SLO violations, shed/retry
// counters and queue-depth series all flow through a MetricsRegistry snapshot
// embedded in the FleetReport, which serializes to schema-stable JSON like
// RunReport does.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/fleet/admission_queue.h"
#include "src/fleet/fleet_faults.h"
#include "src/fleet/health.h"
#include "src/fleet/shard_router.h"
#include "src/fleet/traffic.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace fabacus {

struct FleetConfig {
  enum class Execution { kAuto, kLockstep, kPartitioned };

  int num_devices = 2;
  // Per-shard device; fault seeds are decorrelated per shard automatically.
  FlashAbacusConfig device = FlashAbacusConfig::Small();
  SchedulerKind scheduler = SchedulerKind::kIntraOutOfOrder;
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  TrafficConfig traffic;

  std::size_t queue_depth = 16;  // admission bound per shard
  int max_route_attempts = 2;    // placements tried before shedding
  int max_batch = 4;             // requests coalesced per device dispatch
  double slo_ms = 250.0;         // client-latency objective per request
  bool verify_outputs = true;    // functional check of every served request

  // --- Fleet fault tolerance (docs/FLEET.md "Fleet fault tolerance") -------
  FleetFaultConfig faults;  // scripted/seeded per-shard fault events
  // Bounded retry budget per request: a failed request (torn by a crash,
  // uncorrectable I/O, timeout) is resubmitted up to this many times, each
  // retry_backoff after the failure, before it counts as failed.
  int max_request_retries = 0;
  Tick retry_backoff = 2 * kMs;
  // Hedged duplicates for latency-class requests: a request still queued
  // hedge_delay after admission gets a duplicate on another shard; the first
  // completion wins and the loser is cancelled (first-wins accounting).
  bool hedge_requests = false;
  Tick hedge_delay = 50 * kMs;
  // A served completion slower than this counts as a timeout failure
  // (retried on the request's budget). 0 disables the timeout.
  double request_timeout_ms = 0.0;
  // SLO-aware shedding: a full admission queue evicts its youngest
  // strictly-lower-priority entry to admit a higher-priority arrival, so
  // overload degrades batch work before latency-class traffic.
  bool priority_shedding = false;

  // Synthetic service mode: shards model batch service time analytically
  // (workload bytes x a per-MB cost + deterministic per-request jitter)
  // instead of running a full device simulation. The serving plane — routing,
  // admission, batching, shedding, priorities, the whole report pipeline —
  // is exercised unchanged, at microseconds per request instead of
  // milliseconds, which is what lets bench_fleet_scaleout push the scenario
  // axis to >=10M requests / 64 devices. Device faults need real devices and
  // are rejected by Validate(); Snapshot/Resume are unavailable (there is no
  // device state to checkpoint). Deterministic per (config, seed) like the
  // real path.
  bool synthetic_service = false;

  // kAuto picks kPartitioned when legal (open loop + oblivious policy +
  // max_route_attempts == 1), else kLockstep.
  Execution execution = Execution::kAuto;
  int sweep_threads = 0;  // partitioned pool width; 0 = env/hardware default

  // Empty when runnable, else the first problem found.
  std::string Validate() const;
  bool CanPartition() const;
};

// Per-shard slice of a fleet run.
struct FleetDeviceStats {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;       // rejections charged to this shard's queue
  std::uint64_t batches = 0;
  std::uint64_t installs = 0;       // fresh dataset installs (flash writes)
  std::uint64_t install_hits = 0;   // requests served from cached datasets
  Tick busy_ns = 0;                 // union of batch service windows
  double utilization = 0.0;         // busy_ns / fleet makespan
  double energy_j = 0.0;            // accelerator energy across its batches
  std::uint64_t events_executed = 0;
  std::size_t peak_queue_depth = 0;
  // Bounded streaming sketches (constant memory per shard however many
  // requests flow through; see docs/OBSERVABILITY.md "Streaming sketches").
  LogHistogram latency_ms;       // client-perceived latency of requests it served
  LogHistogram batch_ms;         // service window per batch
  BoundedTimeSeries queue_depth; // admission-queue depth over time

  // --- Fault-tolerance slice (fleet/fault/* + fleet/health/* metrics) ------
  std::uint64_t failures = 0;       // request failures charged to this shard
  std::uint64_t torn = 0;           // in-flight requests torn by a crash
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  bool dead = false;                // permanently failed, never rejoined
  Tick down_ns = 0;                 // total crash downtime
  std::uint64_t recovered_lost_groups = 0;  // FTL mappings lost in recovery
  std::uint64_t recovered_torn_groups = 0;  // half-programmed groups found
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t probes = 0;                 // requests admitted half-open
  std::string breaker_state = "closed";     // state at end of run
  double health_latency_ewma_ms = 0.0;
  double health_error_ewma = 0.0;
};

struct FleetReport {
  std::string policy;
  std::string traffic_model;
  std::string scheduler;
  std::string execution;  // "lockstep" | "partitioned"
  int num_devices = 0;

  Tick makespan = 0;  // last completion (or last arrival when all shed)
  std::uint64_t offered = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  // accepted but lost after every retry (torn/IO/timeout)
  std::uint64_t route_retries = 0;
  std::uint64_t slo_violations = 0;
  double throughput_rps = 0.0;  // served requests per simulated second
  double served_mb_s = 0.0;     // modelled bytes of served requests per second
  double availability = 1.0;    // served / offered — the goodput ratio
  bool verified = true;

  // --- Fault-tolerance rollup ----------------------------------------------
  std::uint64_t fault_events_applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t deaths = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t torn_in_flight = 0;    // requests torn by crashes
  std::uint64_t failover_reroutes = 0; // queued requests drained to other shards
  std::uint64_t request_retries = 0;   // failure-path resubmissions
  std::uint64_t timeouts = 0;
  std::uint64_t evictions = 0;         // priority-shed queue evictions
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;        // duplicate finished first
  std::uint64_t hedges_cancelled = 0;  // losers removed or ignored
  // Per-priority-class accounting, indexed by RequestPriority.
  std::uint64_t offered_by_priority[kNumPriorities] = {0, 0, 0};
  std::uint64_t served_by_priority[kNumPriorities] = {0, 0, 0};
  std::uint64_t shed_by_priority[kNumPriorities] = {0, 0, 0};
  std::uint64_t failed_by_priority[kNumPriorities] = {0, 0, 0};

  // Latency sketches: bounded LogHistograms, O(1) memory per
  // sketch regardless of request count. count/min/max are exact; a
  // percentile is within 1/64 of the exact one when the two samples around
  // its rank share a bucket (docs/OBSERVABILITY.md "Streaming sketches").
  LogHistogram latency_ms;                      // all served requests
  LogHistogram priority_latency_ms[kNumPriorities];  // served, per class
  std::vector<FleetDeviceStats> devices;        // indexed by shard
  std::vector<LogHistogram> client_latency_ms;  // indexed by client id
  MetricsSnapshot metrics;                      // fleet/* hierarchy

  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;

  // Request conservation: one line per violated invariant, empty when the
  // report holds together. Offered = served + shed + failed, in total and
  // per class; the devices' served, shed and failures sum to the fleet's;
  // every latency sketch (fleet, per class, clients together, devices
  // together) counts exactly its served requests. O(devices + clients).
  std::vector<std::string> Audit() const;
};

// A FleetSim is itself the "fleet" snapshot section (device count, mix size,
// sketch geometry, router, traffic stream); BuildSnapshot adds one device
// blob, one install-cache and one health section per shard.
class FleetSim : public Snapshottable {
 public:
  explicit FleetSim(const FleetConfig& config);
  ~FleetSim();
  FleetSim(const FleetSim&) = delete;
  FleetSim& operator=(const FleetSim&) = delete;

  // Serves the configured traffic to completion and returns the merged
  // report, CHECK-failing if its Audit() finds a violation. One-shot: a
  // FleetSim instance runs once (Resume() re-arms a fresh instance for a
  // warm-started run).
  FleetReport Run();

  const FleetConfig& config() const { return config_; }

  // --- Fleet checkpoint/restore (docs/SNAPSHOT.md) -------------------------
  // Fans every shard's device snapshot into one "fleet" container, together
  // with the traffic-generator stream position, the router cursor and each
  // shard's install cache (which datasets are flash-resident, and where).
  // Valid between runs only: every shard idle, every admission queue empty.
  bool Snapshot(const std::string& path, std::string* error = nullptr) const;
  SnapshotBuilder BuildSnapshot() const;

  // Restores a fleet snapshot into this (freshly constructed, identically
  // configured) fleet: shard devices resume exactly, install caches come
  // back warm, and the traffic/router streams continue where they stopped.
  // The next Run() serves a fresh traffic window — arrivals are offset to
  // the resumed clock and the report's makespan/throughput cover only the
  // new window (serving stats do not accumulate across segments). Returns
  // false with *error set on any mismatch; discard the fleet on failure.
  bool Resume(const SnapshotFile& snap, std::string* error = nullptr);
  bool Resume(const std::string& path, std::string* error = nullptr);

  std::string StateName() const override { return "fleet"; }
  int StateVersion() const override { return 3; }
  void Persist(StateIO& io) override;

 private:
  struct Shard;
  struct ServeLoop;

  void BuildShards();
  // The per-shard device config (decorrelated fault seed); also what a
  // snapshot-mode recovery rebuilds a replacement device from.
  FlashAbacusConfig ShardDeviceConfig(int shard) const;
  // A shard's install-cache directory, shared by the fleet snapshot and the
  // snapshot-mode crash checkpoints.
  void PersistInstallCache(Shard* shard, StateIO& io) const;
  // Folds one finished (served / shed / failed) request into report_.
  // Sketch counts, min/max and the fixed-point sums are all order-invariant,
  // so the lockstep loop retiring in completion order and the partitioned
  // path retiring in id order produce byte-identical reports.
  // Single-threaded callers only.
  void RetireRequest(const FleetRequest& r);
  // Moves report_ out and fills in its derived fields.
  FleetReport Finalize(const std::string& execution);

  FleetConfig config_;
  std::unique_ptr<TrafficGenerator> traffic_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // The report under construction. RetireRequest and the lockstep serve
  // loop count into it as requests and faults resolve; its makespan holds
  // the absolute last-activity tick until Finalize. Memory is
  // O(devices + clients + priorities), not O(requests). Partitioned shards
  // never write it from their worker threads: they run no hedges, retries
  // or faults, and their requests retire after the loop, on one thread.
  FleetReport report_;
  // Served-request count per mix workload: served bytes reduce to
  // sum(count[w] * bytes[w]) in mix order — exact and order-invariant,
  // where a per-request double sum would depend on retirement order.
  std::vector<std::uint64_t> served_by_workload_;
  // Clock floor of a resumed fleet: arrivals shift past it and report
  // windows subtract it, so a warm-started run reads like a fresh one.
  Tick resume_base_ = 0;
  bool ran_ = false;
};

// Convenience: configure, run, report.
FleetReport RunFleet(const FleetConfig& config);

}  // namespace fabacus

#endif  // SRC_FLEET_FLEET_H_

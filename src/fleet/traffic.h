// Synthetic client traffic for the fleet serving layer (see docs/FLEET.md).
//
// A TrafficGenerator turns a seed plus a TrafficConfig into a deterministic
// request schedule over a kernel mix drawn from the WorkloadRegistry:
//  * open loop  — a Poisson arrival process at a fixed aggregate rate; the
//    whole schedule exists up front, so overload shows up as queueing and
//    shedding rather than back-pressure on the clients.
//  * closed loop — N clients that each keep one request in flight and think
//    (exponentially distributed) between completions; arrival times emerge
//    from the simulation, so the offered load adapts to service latency.
//
// Everything is drawn from one SplitMix64 stream: identical seed + config =>
// identical request ids, clients, workloads and arrival schedule (the fleet
// tests lock this down).
#ifndef SRC_FLEET_TRAFFIC_H_
#define SRC_FLEET_TRAFFIC_H_

#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"
#include "src/workloads/workload.h"

namespace fabacus {

// Service class of a request: what the fleet protects under overload and
// failure (docs/FLEET.md "Fleet fault tolerance"). Ordered best-first so the
// SLO-aware shedder can compare classes numerically.
enum class RequestPriority { kLatency = 0, kThroughput = 1, kBatch = 2 };
constexpr int kNumPriorities = 3;

const char* RequestPriorityName(RequestPriority p);

// One client request: execute one instance of a registry workload somewhere
// in the fleet. The routing/serving fields are filled in as the request moves
// through admission, dispatch and completion.
struct FleetRequest {
  enum class Outcome {
    kPending,
    kServed,
    kShed,    // rejected at admission (no queue slot / priority eviction)
    kFailed,  // accepted but lost: torn by a crash, uncorrectable I/O, timeout
  };

  int id = 0;            // global submission order (generator-assigned)
  int client_id = 0;
  int workload_idx = 0;  // index into TrafficGenerator::mix()
  RequestPriority priority = RequestPriority::kThroughput;
  Tick arrival = 0;

  Outcome outcome = Outcome::kPending;
  int device = -1;       // shard that admitted (or -1 when shed)
  int route_retries = 0; // admission rejections before placement/shedding
  Tick dispatch = 0;     // dequeued from admission into a device batch
  Tick complete = 0;     // device-reported completion (writeback accepted)

  // --- Fault-tolerance lifecycle (managed by FleetSim's serve loop) --------
  int retries = 0;          // fleet-level resubmissions after failures
  bool is_probe = false;    // admitted through a half-open circuit breaker
  bool is_hedge = false;    // this object is a hedged duplicate, not a client
                            // request (excluded from offered/served accounting)
  bool hedged = false;      // a hedge duplicate was issued for this request
  bool cancelled = false;   // lost the first-wins race; completion is ignored
  FleetRequest* hedge_peer = nullptr;  // primary <-> duplicate link
  int queued_on = -1;       // shard whose admission queue holds it (-1: none)
  bool in_flight = false;   // member of a dispatched device batch
};

struct TrafficMixEntry {
  std::string workload;  // registry name, e.g. "ATAX"
  double weight = 1.0;   // relative draw probability
};

struct TrafficConfig {
  enum class Model { kOpenLoop, kClosedLoop };

  Model model = Model::kOpenLoop;
  std::uint64_t seed = 1;
  int num_clients = 8;

  // Open loop: Poisson arrivals at `arrival_rate_per_s` aggregate across the
  // fleet until `total_requests` have been emitted; requests round-robin over
  // the clients.
  double arrival_rate_per_s = 2000.0;
  int total_requests = 128;

  // Closed loop: every client issues `requests_per_client` requests, one at a
  // time, with exponential think time (mean kMeanThinkTime) after each
  // completion (or shed).
  int requests_per_client = 8;
  static constexpr Tick kMeanThinkTime = 500 * kUs;

  // Kernel mix; empty selects a light data-intensive default
  // (ATAX/BICG/MVT/GESUM, equal weights).
  std::vector<TrafficMixEntry> mix;

  // Priority-class shares: each request is latency-class with probability
  // `latency_share`, batch-class with `batch_share`, throughput otherwise.
  // Drawn from a side hash of (seed, request id) — NOT the main stream — so
  // enabling priorities never perturbs the arrival schedule.
  double latency_share = 0.0;
  double batch_share = 0.0;

  // Empty when well-formed, else a description of the first problem.
  std::string Validate() const;
};

const char* TrafficModelName(TrafficConfig::Model m);

class TrafficGenerator {
 public:
  explicit TrafficGenerator(const TrafficConfig& config);

  const TrafficConfig& config() const { return config_; }
  // Resolved kernel mix, in config order.
  const std::vector<const Workload*>& mix() const { return mix_; }

  // Open loop: the complete arrival schedule, in arrival order.
  // Closed loop: each client's first request.
  std::vector<FleetRequest> InitialArrivals();

  // Open loop only: emits the next arrival of the schedule one request at a
  // time (O(1) memory for unbounded streams — the million-client path);
  // InitialArrivals() is this call in a loop. Returns false once
  // total_requests have been emitted in this window, and always for closed
  // loop. Do not mix with InitialArrivals() on one generator: both walk the
  // same stream.
  bool NextArrival(FleetRequest* out);

  // Closed loop only: the next request of `client` after its previous one
  // finished (served or shed) at `now`. Returns false when the client has
  // issued its full quota (and always for open loop).
  bool NextForClient(int client, Tick now, FleetRequest* out);

  // Requests this generator will emit over its lifetime.
  int total_requests() const;

  // Checkpoint/restore of the generator's stream position: a restored
  // generator continues the same deterministic schedule (ids, workload
  // draws, inter-arrival gaps) exactly where the saved one stopped.
  void Persist(StateIO& io) {
    std::uint64_t rng = rng_.state();
    io.U64(rng);
    io.I32(next_id_);
    if (!io.saving()) {
      rng_.set_state(rng);
      // The open-loop clock and window counter restart on restore: a resumed
      // fleet serves a fresh total_requests window whose arrivals it offsets
      // by resume_base_, exactly as InitialArrivals() behaves.
      open_clock_ = 0;
      open_emitted_ = 0;
    }
    io.FixedVecI32(emitted_per_client_, "traffic generator client count");
  }

 private:
  FleetRequest MakeRequest(int client, Tick arrival);
  RequestPriority PriorityFor(int id) const;
  int DrawWorkload();
  Tick DrawExponential(double mean_ns);

  TrafficConfig config_;
  std::vector<const Workload*> mix_;
  std::vector<double> cumulative_weight_;  // normalized CDF over the mix
  Rng rng_;
  int next_id_ = 0;
  Tick open_clock_ = 0;   // last open-loop arrival time (streaming path)
  int open_emitted_ = 0;  // arrivals emitted in this window (streaming path)
  std::vector<int> emitted_per_client_;
};

}  // namespace fabacus

#endif  // SRC_FLEET_TRAFFIC_H_

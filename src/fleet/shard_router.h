// ShardRouter: pluggable placement of client requests onto fleet shards.
//
//  * kRoundRobin       — rotate over the devices in arrival order. Oblivious
//    to device state; the throughput baseline.
//  * kLeastOutstanding — pick the device with the fewest queued + in-flight
//    requests (ties to the lowest index). The classic join-shortest-queue
//    latency policy; needs live fleet state.
//  * kDataAffinity     — hash the request's workload to a home device so
//    repeated requests for a dataset land where its flash-resident copy
//    already lives (install-cache hits instead of fresh flash writes).
//    Oblivious; trades balance for flash locality.
//  * kHealthAware      — rank routable devices (breaker closed, or half-open
//    with probe-quota room) ahead of unroutable ones, then by outstanding
//    load and EWMA health score (docs/FLEET.md "Fleet fault tolerance").
//    Routes around crashed, open-breaker and slow shards while still
//    enumerating every device across attempts, so a degraded fleet fails
//    static instead of failing closed; half-open shards receive a bounded
//    probe trickle so they can prove themselves and rejoin.
//
// `attempt` > 0 asks for the policy's next-best candidate after an admission
// rejection; every policy enumerates all devices across num_devices attempts,
// even when some of them are down (the unroutable ones come last).
#ifndef SRC_FLEET_SHARD_ROUTER_H_
#define SRC_FLEET_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "src/fleet/traffic.h"
#include "src/sim/snapshot.h"

namespace fabacus {

enum class PlacementPolicy { kRoundRobin, kLeastOutstanding, kDataAffinity, kHealthAware };

const char* PlacementPolicyName(PlacementPolicy p);

// True when the policy's choice depends only on the request stream, never on
// device state — the precondition for routing a whole open-loop schedule up
// front and simulating the shards in parallel (see FleetSim).
bool PolicyIsOblivious(PlacementPolicy p);

// One shard's admission posture as seen by the router (built by FleetSim from
// the shard's CircuitBreaker + HealthTracker each time it routes).
struct ShardHealthView {
  bool routable = true;  // false: breaker open, shard down or permanently dead
  bool probing = false;  // half-open: admit only the probe trickle
  double score = 0.0;    // HealthTracker::Score(); lower is healthier
};

// Live fleet state consulted by the state-aware policies. Oblivious policies
// ignore both fields; a null `health` means every shard is presumed healthy.
struct RouteState {
  const std::vector<int>* outstanding = nullptr;  // queued + in-flight per shard
  const std::vector<ShardHealthView>* health = nullptr;
};

class ShardRouter {
 public:
  ShardRouter(PlacementPolicy policy, int num_devices);

  PlacementPolicy policy() const { return policy_; }
  int num_devices() const { return num_devices_; }

  // Device for `r`. `attempt` 0 is the primary choice, 1.. the fallbacks
  // after rejections; attempts 0..num_devices-1 visit every device once.
  int Route(const FleetRequest& r, const RouteState& state, int attempt = 0);
  // Convenience for callers with no health signal (oblivious paths, tests).
  int Route(const FleetRequest& r, const std::vector<int>& outstanding, int attempt = 0);

  // Checkpoint/restore: a versioned per-policy state blob (format version
  // byte, policy tag, then the policy's own payload — the rotation cursor for
  // round-robin, nothing for the stateless policies). A load rejects
  // version or policy mismatches via the reader's latched-error discipline.
  void Persist(StateIO& io);

 private:
  static constexpr std::uint8_t kStateFormatVersion = 1;

  PlacementPolicy policy_;
  int num_devices_;
  std::uint64_t rr_next_ = 0;
};

}  // namespace fabacus

#endif  // SRC_FLEET_SHARD_ROUTER_H_

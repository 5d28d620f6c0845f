#include "src/fleet/shard_router.h"

#include <algorithm>
#include <numeric>

#include "src/sim/log.h"
#include "src/sim/rng.h"

namespace fabacus {

const char* PlacementPolicyName(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kLeastOutstanding:
      return "least-outstanding";
    case PlacementPolicy::kDataAffinity:
      return "data-affinity";
    case PlacementPolicy::kHealthAware:
      return "health-aware";
  }
  return "?";
}

bool PolicyIsOblivious(PlacementPolicy p) {
  return p != PlacementPolicy::kLeastOutstanding && p != PlacementPolicy::kHealthAware;
}

ShardRouter::ShardRouter(PlacementPolicy policy, int num_devices)
    : policy_(policy), num_devices_(num_devices) {
  FAB_CHECK_GE(num_devices, 1);
}

int ShardRouter::Route(const FleetRequest& r, const std::vector<int>& outstanding,
                       int attempt) {
  RouteState state;
  state.outstanding = &outstanding;
  return Route(r, state, attempt);
}

int ShardRouter::Route(const FleetRequest& r, const RouteState& state, int attempt) {
  const std::uint64_t n = static_cast<std::uint64_t>(num_devices_);
  const std::uint64_t a = static_cast<std::uint64_t>(attempt);
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      // One rotation step per request; retries probe the following devices.
      if (attempt == 0) {
        rr_next_ = (rr_next_ + 1) % n;
      }
      return static_cast<int>((rr_next_ + a) % n);
    }
    case PlacementPolicy::kLeastOutstanding: {
      FAB_CHECK(state.outstanding != nullptr) << "least-outstanding needs live queue depths";
      const std::vector<int>& outstanding = *state.outstanding;
      FAB_CHECK_EQ(outstanding.size(), n) << "outstanding vector size mismatch";
      // attempt-th smallest (outstanding, index); deterministic under ties.
      std::vector<int> order(num_devices_);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int x, int y) {
        const std::size_t sx = static_cast<std::size_t>(x);
        const std::size_t sy = static_cast<std::size_t>(y);
        return outstanding[sx] != outstanding[sy] ? outstanding[sx] < outstanding[sy] : x < y;
      });
      return order[static_cast<std::size_t>(a % n)];
    }
    case PlacementPolicy::kDataAffinity: {
      // SplitMix64 scramble of the workload id: the dataset's home device.
      // Retries spiral outward from home.
      const std::uint64_t home =
          Mix64(static_cast<std::uint64_t>(r.workload_idx) + 0x9e3779b97f4a7c15ULL);
      return static_cast<int>((home + a) % n);
    }
    case PlacementPolicy::kHealthAware: {
      FAB_CHECK(state.outstanding != nullptr) << "health-aware needs live queue depths";
      const std::vector<int>& outstanding = *state.outstanding;
      FAB_CHECK_EQ(outstanding.size(), n) << "outstanding vector size mismatch";
      if (state.health != nullptr) {
        FAB_CHECK_EQ(state.health->size(), n) << "health view size mismatch";
      }
      // Rank routable shards (closed, or half-open with probe-quota room)
      // ahead of unroutable ones, then by load, then EWMA score, ties to the
      // lowest index — the attempt-th entry of that ranking. A half-open
      // shard competes like a closed one on purpose: the breaker's probe
      // quota flips it to unroutable once enough probes are in flight, so it
      // receives a bounded trickle instead of starving (a shard that never
      // sees traffic can never prove itself and rejoin). Unroutable shards
      // still appear at the tail so retries enumerate the whole fleet
      // ("fail static").
      auto category = [&](int d) {
        if (state.health == nullptr) {
          return 0;
        }
        return (*state.health)[static_cast<std::size_t>(d)].routable ? 0 : 1;
      };
      auto score = [&](int d) {
        return state.health == nullptr ? 0.0
                                       : (*state.health)[static_cast<std::size_t>(d)].score;
      };
      std::vector<int> order(num_devices_);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int x, int y) {
        const int cx = category(x);
        const int cy = category(y);
        if (cx != cy) {
          return cx < cy;
        }
        const std::size_t sx = static_cast<std::size_t>(x);
        const std::size_t sy = static_cast<std::size_t>(y);
        if (outstanding[sx] != outstanding[sy]) {
          return outstanding[sx] < outstanding[sy];
        }
        const double hx = score(x);
        const double hy = score(y);
        if (hx != hy) {
          return hx < hy;
        }
        return x < y;
      });
      return order[static_cast<std::size_t>(a % n)];
    }
  }
  return 0;
}

void ShardRouter::Persist(StateIO& io) {
  std::uint8_t version = kStateFormatVersion;
  io.U8(version);
  if (io.ok() && version != kStateFormatVersion) {
    io.Fail("router state format version " + std::to_string(version) + " != " +
            std::to_string(kStateFormatVersion));
    return;
  }
  std::uint8_t policy = static_cast<std::uint8_t>(policy_);
  io.U8(policy);
  if (io.ok() && policy != static_cast<std::uint8_t>(policy_)) {
    io.Fail("router state saved under policy " + std::to_string(policy) +
            " but this router runs " + PlacementPolicyName(policy_));
    return;
  }
  switch (policy_) {
    case PlacementPolicy::kRoundRobin:
      io.U64(rr_next_);
      break;
    case PlacementPolicy::kLeastOutstanding:
    case PlacementPolicy::kDataAffinity:
    case PlacementPolicy::kHealthAware:
      break;  // stateless: their choices derive from live fleet state
  }
}

}  // namespace fabacus

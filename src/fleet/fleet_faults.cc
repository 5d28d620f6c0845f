#include "src/fleet/fleet_faults.h"

#include <algorithm>

#include "src/sim/rng.h"

namespace fabacus {

std::string FleetFaultConfig::Validate(int num_devices) const {
  for (const FleetFaultEvent& e : plan) {
    if (e.shard < 0 || e.shard >= num_devices) {
      return "fault plan targets shard " + std::to_string(e.shard) + " but the fleet has " +
             std::to_string(num_devices) + " devices";
    }
    if (e.kind == FleetFaultEvent::Kind::kStall) {
      if (e.duration < 1) {
        return "stall events need a positive duration";
      }
      if (e.stall_factor <= 1.0) {
        return "stall_factor must exceed 1.0, got " + std::to_string(e.stall_factor);
      }
    }
    if (e.kind == FleetFaultEvent::Kind::kCrash && e.duration < 1) {
      return "crash events need a positive downtime duration";
    }
  }
  if (random_events < 0) {
    return "random_events must be >= 0, got " + std::to_string(random_events);
  }
  if (random_events > 0) {
    if (random_horizon < 1) {
      return "random chaos needs a positive random_horizon";
    }
    if (weight_stall < 0.0 || weight_degrade < 0.0 || weight_crash < 0.0) {
      return "chaos kind weights must be non-negative";
    }
    if (weight_stall + weight_degrade + weight_crash <= 0.0) {
      return "at least one chaos kind weight must be positive";
    }
  }
  if (checkpoint_every_batches < 1) {
    return "checkpoint_every_batches must be >= 1, got " +
           std::to_string(checkpoint_every_batches);
  }
  return "";
}

std::vector<FleetFaultEvent> FleetFaultConfig::Materialize(int num_devices) const {
  std::vector<FleetFaultEvent> events = plan;
  if (random_events > 0 && num_devices > 0) {
    Rng rng(seed);
    const double total = weight_stall + weight_degrade + weight_crash;
    for (int i = 0; i < random_events; ++i) {
      FleetFaultEvent e;
      e.shard = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(num_devices)));
      e.at = static_cast<Tick>(rng.NextBelow(static_cast<std::uint64_t>(random_horizon)));
      const double u = rng.NextDouble() * total;
      if (u < weight_stall) {
        e.kind = FleetFaultEvent::Kind::kStall;
        e.duration = kRandomStallDuration;
        e.stall_factor = kRandomStallFactor;
      } else if (u < weight_stall + weight_degrade) {
        e.kind = FleetFaultEvent::Kind::kDegrade;
        e.kill_whole_channel = rng.NextBelow(4) == 0;  // mostly single-die kills
        e.kill_channel = static_cast<int>(rng.NextBelow(1u << 16));
        e.kill_package = static_cast<int>(rng.NextBelow(1u << 16));
      } else {
        e.kind = FleetFaultEvent::Kind::kCrash;
        e.duration = kRandomCrashDowntime;
      }
      events.push_back(e);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FleetFaultEvent& a, const FleetFaultEvent& b) {
                     if (a.at != b.at) {
                       return a.at < b.at;
                     }
                     if (a.shard != b.shard) {
                       return a.shard < b.shard;
                     }
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return events;
}

}  // namespace fabacus

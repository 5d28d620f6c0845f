// Fleet-scope failure injection (docs/FLEET.md "Fleet fault tolerance").
//
// A FleetFaultConfig turns into a deterministic, time-sorted list of
// per-shard fault events that FleetSim's lockstep loop applies at exact
// simulation ticks:
//
//   * kStall   — a brownout window: every batch dispatched on the shard while
//     the window is open has its service time inflated by `stall_factor`.
//     Models thermal throttling / internal housekeeping storms.
//   * kDegrade — error-rate degradation: kills a die (or a whole channel) in
//     the shard's existing FaultModel, so reads detour around dead geometry
//     at reduced bandwidth and I/O failures climb (docs/RELIABILITY.md).
//   * kCrash   — full power-loss crash at a tick. In-flight requests tear,
//     queued requests fail over to other shards, and the device recovers
//     after `duration` via RecoverFromFlash (PR 2) or its last checkpoint
//     (PR 5), rejoining through the circuit breaker's half-open probes.
//   * kDeath   — a permanent crash: the shard never rejoins and the fleet
//     serves on the survivors.
//
// Events come from an explicit scripted plan, a seeded random chaos stream,
// or both; Materialize() merges them into one stable order so every run of
// the same (config, seed) applies the identical fault schedule.
#ifndef SRC_FLEET_FLEET_FAULTS_H_
#define SRC_FLEET_FLEET_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace fabacus {

struct FleetFaultEvent {
  enum class Kind { kStall, kDegrade, kCrash, kDeath };

  Kind kind = Kind::kStall;
  int shard = 0;
  Tick at = 0;
  // kStall: brownout window length. kCrash: downtime before recovery starts.
  Tick duration = 2 * kMs;
  double stall_factor = 4.0;  // kStall service-time multiplier
  // kDegrade target inside the shard (wrapped into the real geometry).
  bool kill_whole_channel = false;
  int kill_channel = 0;
  int kill_package = 0;
};

struct FleetFaultConfig {
  // Scripted events, any order; Materialize() sorts them.
  std::vector<FleetFaultEvent> plan;

  // Seeded chaos: `random_events` extra events drawn over [0, random_horizon)
  // with kind weights below (kDeath is never drawn randomly — permanent
  // capacity loss is a scripted decision, not noise).
  std::uint64_t seed = 0xc4a05f00dULL;
  int random_events = 0;
  Tick random_horizon = 0;
  double weight_stall = 1.0;
  double weight_degrade = 1.0;
  double weight_crash = 1.0;
  // What a drawn event does: a crash's downtime, a stall's window and factor.
  static constexpr Tick kRandomCrashDowntime = 5 * kMs;
  static constexpr Tick kRandomStallDuration = 2 * kMs;
  static constexpr double kRandomStallFactor = 4.0;

  // How a crashed shard comes back (docs/RELIABILITY.md, docs/SNAPSHOT.md):
  //  * kFlash    — CrashAt + RecoverFromFlash: rebuild the FTL from flash
  //    (journal + OOB replay); the install cache is conservatively dropped.
  //  * kSnapshot — restore the shard's last periodic device checkpoint
  //    (taken every checkpoint_every_batches completed batches) into a fresh
  //    device, install cache included.
  enum class Recovery { kFlash, kSnapshot };
  Recovery recovery = Recovery::kFlash;
  int checkpoint_every_batches = 4;

  bool Any() const { return !plan.empty() || random_events > 0; }

  // Empty when well-formed for a fleet of `num_devices`, else the first
  // problem found.
  std::string Validate(int num_devices) const;

  // Scripted plan + seeded chaos, stably sorted by (tick, shard, kind).
  // Deterministic: identical config => identical event list.
  std::vector<FleetFaultEvent> Materialize(int num_devices) const;
};

}  // namespace fabacus

#endif  // SRC_FLEET_FLEET_FAULTS_H_

// Deterministic, seeded fault injection for the flash backbone (the
// reliability machinery behind the paper's self-governance claim, §4.3).
//
// One FaultModel instance is owned by FlashBackbone and consulted by every
// channel controller on each device operation. It decides
//   * read errors: a wear-dependent raw-bit-error process. An affected read
//     needs one or more rungs of the ONFi-style read-retry ladder (re-reads
//     with shifted reference voltages, each at escalating latency); a read
//     that exhausts the ladder is uncorrectable.
//   * program failures: a program-status fail, scaled by wear. Flashvisor
//     responds by re-allocating the page group to a fresh block group and
//     retiring the failed one.
//   * erase failures: the block fails to erase and is marked bad (the
//     pre-existing behaviour of NandConfig::erase_failure_rate, now
//     wear-scaled and owned here).
//   * transient die stalls: a die occasionally holds busy for an extra
//     interval (cache conflicts, internal housekeeping on real parts).
//   * scripted faults: a fault plan ("at tick T, kill die/channel X") for
//     degraded-mode experiments. Dead dies are permanent; the controllers
//     remap around them at reduced bandwidth instead of CHECK-failing.
//
// Everything is driven by one SplitMix64 stream seeded from FaultConfig, so
// identical seed + plan => identical fault schedule (tests assert this).
#ifndef SRC_FLASH_FAULT_MODEL_H_
#define SRC_FLASH_FAULT_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace fabacus {

// Outcome severity of an I/O request, propagated from the backbone through
// Flashvisor::IoRequest completions up to the offload runtime.
enum class IoStatus {
  kOk = 0,           // completed cleanly (correctable retries are still kOk-adjacent
                     // at request level only if no rung was walked; see kDegraded)
  kDegraded = 1,     // completed, but via retry rungs or a dead-die detour
  kUncorrectable = 2,  // read data could not be corrected within the ladder
  kProgramFailed = 3,  // program-status fail; data did not land
};

inline IoStatus WorseStatus(IoStatus a, IoStatus b) { return a < b ? b : a; }

struct FaultPlanEntry {
  enum class Kind { kKillDie, kKillChannel };
  Kind kind = Kind::kKillDie;
  Tick at = 0;      // simulation tick at which the fault manifests
  int channel = 0;
  int package = 0;  // ignored for kKillChannel
};

struct FaultConfig {
  std::uint64_t seed = 0x5eedf00dULL;

  // P(read needs the retry ladder) = read_error_base +
  // read_error_wear_slope * (block wear / endurance_cycles), clamped to [0,1].
  double read_error_base = 0.0;
  double read_error_wear_slope = 0.0;
  // Given a read error, each ladder rung independently fails to correct with
  // this probability; exhausting every rung makes the read uncorrectable.
  double retry_rung_fail = 0.35;

  // Program/erase failure probabilities, each scaled by (1 + wear/endurance).
  double program_failure_rate = 0.0;
  double erase_failure_rate = 0.0;

  // Transient die stalls: probability per die operation, and the stall length.
  double die_stall_rate = 0.0;
  Tick die_stall_ns = 200 * kUs;

  // Scripted faults, applied when simulation time reaches each entry's tick.
  std::vector<FaultPlanEntry> plan;
};

// Per-read fault outcome: how many retry rungs the controller must walk
// (0 = the first read sensed clean), and whether the ladder was exhausted.
struct ReadFault {
  int rungs = 0;
  bool uncorrectable = false;
};

class FaultModel : public Snapshottable {
 public:
  FaultModel(const FaultConfig& config, int channels, int packages_per_channel,
             std::uint64_t endurance_cycles, int ladder_depth);

  // Applies every plan entry with `at` <= now. Idempotent; called by the
  // controllers at each device op so scripted faults take effect on time.
  void Advance(Tick now);

  // Immediate die/channel kill (what the plan entries resolve to; also used
  // directly by tests and chaos tooling).
  void KillDie(int channel, int package);
  void KillChannel(int channel);
  bool IsDeadDie(int channel, int package) const;
  int dead_die_count() const { return dead_dies_; }

  // Fault draws. `wear` is the erase count of the block being touched.
  ReadFault OnRead(std::uint64_t wear);
  bool ProgramFails(std::uint64_t wear);
  bool EraseFails(std::uint64_t wear);
  Tick StallTicks();  // 0 when the die does not stall

  const FaultConfig& config() const { return config_; }

  // Snapshottable: RNG stream position, dead-die map and plan cursor, so a
  // resumed run draws the exact fault sequence the unbroken run would have.
  std::string StateName() const override { return "faults"; }
  void Persist(StateIO& io) override {
    std::uint64_t rng = rng_.state();
    io.U64(rng);
    io.FixedBits(dead_, "fault model shape");
    std::uint64_t next_plan = next_plan_;
    io.U64(next_plan);
    if (next_plan > config_.plan.size()) {
      io.Fail("fault model shape mismatch");
      return;
    }
    if (!io.saving()) {
      rng_.set_state(rng);
      next_plan_ = static_cast<std::size_t>(next_plan);
      dead_dies_ = static_cast<int>(std::count(dead_.begin(), dead_.end(), true));
    }
  }

 private:
  double WearScale(std::uint64_t wear) const;

  FaultConfig config_;
  int channels_;
  int packages_per_channel_;
  double endurance_;
  int ladder_depth_;
  Rng rng_;
  std::vector<bool> dead_;  // [channel * packages_per_channel + package]
  int dead_dies_ = 0;
  std::size_t next_plan_ = 0;  // plan entries are pre-sorted by tick
};

}  // namespace fabacus

#endif  // SRC_FLASH_FAULT_MODEL_H_

// One NAND package (2 planes). Tracks per-block erase/program state so the
// simulator can enforce real NAND discipline: pages must be programmed in
// order within an erased block, and never re-programmed without an erase.
// Timing is a single busy-until horizon per package (multi-plane ops occupy
// both planes simultaneously, as on real parts).
#ifndef SRC_FLASH_NAND_PACKAGE_H_
#define SRC_FLASH_NAND_PACKAGE_H_

#include <cstdint>
#include <vector>

#include "src/flash/nand_config.h"
#include "src/sim/metrics.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

class NandPackage : public Snapshottable {
 public:
  NandPackage(const NandConfig& config, int channel, int index);

  // Multi-plane page read: both planes at (block, page). Returns completion.
  Tick ReadPages(Tick now, int block, int page);
  // Multi-plane page program. CHECKs NAND discipline (erased, in-order).
  Tick ProgramPages(Tick now, int block, int page);
  // Block erase (both planes). Returns completion; bumps wear.
  Tick EraseBlock(Tick now, int block);

  bool IsErased(int block, int page) const;
  bool IsProgrammed(int block, int page) const;
  std::uint64_t wear(int block) const { return wear_[block]; }
  std::uint64_t max_wear() const;
  std::uint64_t total_erases() const { return total_erases_.value(); }
  std::uint64_t total_reads() const { return reads_.value(); }
  std::uint64_t total_programs() const { return programs_.value(); }
  bool IsBad(int block) const { return bad_[block]; }
  void MarkBad(int block) { bad_[block] = true; }

  Tick busy_until() const { return busy_until_; }
  Tick BusyTime(Tick now) const { return busy_.BusyTime(now); }
  double Utilization(Tick now) const { return busy_.Utilization(now); }
  int channel() const { return channel_; }
  int index() const { return index_; }

  // Registers read/program/erase counters and a busy-time gauge under
  // `prefix` (e.g. "flash/ch0/pkg1").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Snapshottable: per-block wear/bad/write-point state plus the timing
  // horizon — the on-die truth that makes long-horizon aging studies
  // resumable.
  std::string StateName() const override;
  void Persist(StateIO& io) override;

 private:
  Tick Occupy(Tick now, Tick duration);

  const NandConfig& config_;
  int channel_;
  int index_;
  Tick busy_until_ = 0;
  BusyTracker busy_;
  // Per block: index of the next page expected to be programmed (0 right
  // after erase; pages_per_block when full). kNeverErased before first erase.
  std::vector<std::int32_t> write_point_;
  std::vector<std::uint64_t> wear_;
  std::vector<bool> bad_;
  Counter reads_;
  Counter programs_;
  Counter total_erases_;

  static constexpr std::int32_t kNeverErased = -1;
};

}  // namespace fabacus

#endif  // SRC_FLASH_NAND_PACKAGE_H_

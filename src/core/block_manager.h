// Block-group lifecycle for Flashvisor/Storengine. A block group is the
// GC/erase unit: one block at the same index on every plane of one package,
// striped across all four channels (paper §4.3). The manager tracks the free
// pool, the used pool in allocation order (Storengine picks GC victims from
// it round-robin rather than by valid-count, §4.3 "Storage management") and
// retired (bad) block groups. Which slots hold live data is the mapping
// table's to say (MappingTable::ReverseLookup and LiveCount).
#ifndef SRC_CORE_BLOCK_MANAGER_H_
#define SRC_CORE_BLOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/flash/nand_config.h"
#include "src/sim/log.h"
#include "src/sim/snapshot.h"

namespace fabacus {

class BlockManager : public Snapshottable {
 public:
  explicit BlockManager(const NandConfig& config);

  // Pulls a block group from the free pool. Returns kNone when empty.
  std::uint64_t AllocBlockGroup();
  // Moves a fully-written block group into the used pool (GC candidates).
  void SealBlockGroup(std::uint64_t bg);
  // Round-robin GC victim: the oldest sealed block group. kNone when empty.
  std::uint64_t PickVictim();
  // Returns an erased block group to the free pool.
  void OnErased(std::uint64_t bg);
  // Permanently retires a block group (uncorrectable error / erase failure /
  // program-status fail). A retired group never re-enters the free pool, but
  // slots already holding valid data stay readable until the scrubber
  // migrates them out.
  void Retire(std::uint64_t bg);
  bool IsRetired(std::uint64_t bg) const { return is_retired_[bg]; }

  // Crash-recovery rebuild support -------------------------------------------
  // Returns every block group to the free pool and clears all retirement
  // state (the on-die wear/bad state lives in the backbone).
  void Reset();
  // Removes `bg` from the free pool (so recovery can re-seal/retire it).
  // Returns false when `bg` is not currently free.
  bool TakeFree(std::uint64_t bg);
  // Removes `bg` from the used pool (scrub victim selection). False when absent.
  bool TakeUsed(std::uint64_t bg);
  const std::deque<std::uint64_t>& used() const { return used_; }

  std::size_t free_count() const { return free_.size(); }
  std::size_t used_count() const { return used_.size(); }
  std::size_t retired_count() const { return retired_count_; }
  std::uint64_t total_block_groups() const { return total_; }

  static constexpr std::uint64_t kNone = ~0ULL;

  // Snapshottable (docs/SNAPSHOT.md). Pool order is serialized verbatim:
  // allocation and GC-victim order are part of deterministic replay. A load
  // refuses a pool entry past the device, pooled twice or retired.
  std::string StateName() const override { return "ftl/blocks"; }
  int StateVersion() const override { return 2; }  // v2: no valid bitmaps or counts
  void Persist(StateIO& io) override;

 private:
  std::uint64_t total_;
  std::deque<std::uint64_t> free_;
  std::deque<std::uint64_t> used_;  // allocation order; front = oldest
  std::vector<bool> is_retired_;
  std::size_t retired_count_ = 0;
};

}  // namespace fabacus

#endif  // SRC_CORE_BLOCK_MANAGER_H_

// Flashvisor's page-group mapping table (paper §4.3).
//
// Log-structured pure page(-group) mapping: logical group -> physical group,
// resident in the scratchpad (32 GB / 64 KB groups x 4 B entries = 2 MB,
// matching the paper's scratchpad budget; the constructor checks that the
// table fits the configured capacity), with a reverse map for GC migration.
// The table is the device's only record of live flash data: a physical
// group is live exactly when ReverseLookup names a logical group there, and
// LiveCount keeps the number of such groups per block group, which GC,
// scrub and the erase check read.
// The mapping survives power loss two ways: Storengine's journal dump
// programs the forward table's bytes() to flash, and Flashvisor writes a
// block-summary footer (built from ReverseLookup) into each sealed block
// group.
#ifndef SRC_CORE_MAPPING_TABLE_H_
#define SRC_CORE_MAPPING_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/flash/nand_config.h"
#include "src/mem/scratchpad.h"
#include "src/sim/log.h"
#include "src/sim/snapshot.h"

namespace fabacus {

class MappingTable : public Snapshottable {
 public:
  static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

  MappingTable(const NandConfig& config, Scratchpad* scratchpad);

  // Logical -> physical group lookup; kUnmapped when never written.
  std::uint32_t Lookup(std::uint64_t logical_group) const;
  // Installs logical -> physical; returns the previous physical mapping (or
  // kUnmapped). Also maintains the reverse map and the live counts.
  std::uint32_t Update(std::uint64_t logical_group, std::uint32_t physical_group);
  // Reverse lookup: which logical group currently lives at `physical_group`
  // (kUnmapped when the slot holds stale/no data).
  std::uint32_t ReverseLookup(std::uint32_t physical_group) const;
  // Live groups in block group `block_group` (DecodeGroup(...).block): its
  // physical groups whose ReverseLookup is mapped.
  std::uint32_t LiveCount(std::uint64_t block_group) const;
  // Drops the logical mapping entirely (TRIM-style; used by tests/tools).
  void Unmap(std::uint64_t logical_group);

  std::uint64_t entries() const { return static_cast<std::uint64_t>(forward_.size()); }
  std::uint64_t mapped_count() const { return mapped_count_; }
  std::uint64_t table_bytes() const { return entries() * sizeof(std::uint32_t); }

  // The forward table's table_bytes() bytes in place, without a copy (what
  // the journal dump programs); they change as the table does. Restore() is
  // the inverse: crash recovery loads a journal back through it.
  std::span<const std::uint8_t> bytes() const {
    return {reinterpret_cast<const std::uint8_t*>(forward_.data()), table_bytes()};
  }
  void Restore(std::span<const std::uint8_t> bytes);

  // Power loss: drops every mapping (the scratchpad is volatile).
  void Clear();

  // Snapshottable (docs/SNAPSHOT.md): the forward table and its mapped
  // count. A load rebuilds the reverse map and the live counts, and rejects
  // entries past the device or naming one physical group twice.
  std::string StateName() const override { return "ftl/map"; }
  void Persist(StateIO& io) override;

 private:
  // Points the reverse entry of `physical_group` at `logical_group` (or
  // kUnmapped), moving its block group's live count with it.
  void SetReverse(std::uint32_t physical_group, std::uint32_t logical_group);
  // Rebuilds the reverse map, live counts and mapped count from the forward
  // table. Returns the first logical group whose entry is past the device or
  // names a physical group already mapped, or entries() when there is none.
  std::uint64_t Rebuild();

  NandConfig config_;
  std::vector<std::uint32_t> forward_;
  std::vector<std::uint32_t> reverse_;
  std::vector<std::uint32_t> live_;  // per block group
  std::uint64_t mapped_count_ = 0;
};

}  // namespace fabacus

#endif  // SRC_CORE_MAPPING_TABLE_H_

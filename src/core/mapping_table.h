// Flashvisor's page-group mapping table (paper §4.3).
//
// Log-structured pure page(-group) mapping: logical group -> physical group,
// resident in the scratchpad (32 GB / 64 KB groups x 4 B entries = 2 MB,
// matching the paper's scratchpad budget; the constructor checks that the
// table fits the configured capacity), with a reverse map for GC migration.
// The table also serializes itself for persistence: Storengine's journaling
// dumps it to flash and a block-summary footer is written into each sealed
// block group so the mapping survives power loss.
#ifndef SRC_CORE_MAPPING_TABLE_H_
#define SRC_CORE_MAPPING_TABLE_H_

#include <cstdint>
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
  // kUnmapped). Also maintains the reverse map.
  std::uint32_t Update(std::uint64_t logical_group, std::uint32_t physical_group);
  // Reverse lookup: which logical group currently lives at `physical_group`
  // (kUnmapped when the slot holds stale/no data).
  std::uint32_t ReverseLookup(std::uint32_t physical_group) const;
  // Drops the logical mapping entirely (TRIM-style; used by tests/tools).
  void Unmap(std::uint64_t logical_group);

  std::uint64_t entries() const { return static_cast<std::uint64_t>(forward_.size()); }
  std::uint64_t mapped_count() const { return mapped_count_; }
  std::uint64_t table_bytes() const { return entries() * sizeof(std::uint32_t); }

  // Serializes the forward table into `out` (for journal dumps / block
  // summaries); Restore() is the inverse, used by recovery tests.
  void Snapshot(std::vector<std::uint8_t>* out) const;
  void Restore(const std::vector<std::uint8_t>& snapshot);

  // Power loss: drops every mapping (the scratchpad is volatile).
  void Clear();

  // Snapshottable (docs/SNAPSHOT.md): the forward table and its mapped
  // count. A load rebuilds the reverse map and rejects entries past the
  // device or naming one physical group twice.
  std::string StateName() const override { return "ftl/map"; }
  void Persist(StateIO& io) override;

 private:
  std::vector<std::uint32_t> forward_;
  std::vector<std::uint32_t> reverse_;
  std::uint64_t mapped_count_ = 0;
};

}  // namespace fabacus

#endif  // SRC_CORE_MAPPING_TABLE_H_

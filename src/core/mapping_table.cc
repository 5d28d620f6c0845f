#include "src/core/mapping_table.h"

#include <cstring>

namespace fabacus {

MappingTable::MappingTable(const NandConfig& config, Scratchpad* scratchpad)
    : forward_(config.TotalGroups(), kUnmapped), reverse_(config.TotalGroups(), kUnmapped) {
  FAB_CHECK(scratchpad != nullptr);
  FAB_CHECK_LE(table_bytes(), scratchpad->config().capacity_bytes)
      << "mapping table does not fit in scratchpad";
}

std::uint32_t MappingTable::Lookup(std::uint64_t logical_group) const {
  FAB_CHECK_LT(logical_group, forward_.size());
  return forward_[logical_group];
}

std::uint32_t MappingTable::Update(std::uint64_t logical_group, std::uint32_t physical_group) {
  FAB_CHECK_LT(logical_group, forward_.size());
  FAB_CHECK_LT(physical_group, reverse_.size());
  const std::uint32_t old = forward_[logical_group];
  if (old != kUnmapped) {
    reverse_[old] = kUnmapped;
  } else {
    ++mapped_count_;
  }
  forward_[logical_group] = physical_group;
  reverse_[physical_group] = static_cast<std::uint32_t>(logical_group);
  return old;
}

std::uint32_t MappingTable::ReverseLookup(std::uint32_t physical_group) const {
  FAB_CHECK_LT(physical_group, reverse_.size());
  return reverse_[physical_group];
}

void MappingTable::Unmap(std::uint64_t logical_group) {
  FAB_CHECK_LT(logical_group, forward_.size());
  const std::uint32_t old = forward_[logical_group];
  if (old != kUnmapped) {
    reverse_[old] = kUnmapped;
    forward_[logical_group] = kUnmapped;
    --mapped_count_;
  }
}

void MappingTable::Restore(std::span<const std::uint8_t> bytes) {
  FAB_CHECK_EQ(bytes.size(), table_bytes());
  std::memcpy(forward_.data(), bytes.data(), table_bytes());
  // Rebuild the reverse map and count from the restored forward table.
  std::fill(reverse_.begin(), reverse_.end(), kUnmapped);
  mapped_count_ = 0;
  for (std::uint64_t lg = 0; lg < forward_.size(); ++lg) {
    if (forward_[lg] != kUnmapped) {
      reverse_[forward_[lg]] = static_cast<std::uint32_t>(lg);
      ++mapped_count_;
    }
  }
}

void MappingTable::Persist(StateIO& io) {
  io.FixedVecU32(forward_, "mapping table size");
  io.U64(mapped_count_);
  if (io.saving() || !io.ok()) {
    return;
  }
  // Rebuild the reverse map, as Restore() does for crash recovery. Every
  // mapped entry must name a distinct physical group.
  std::fill(reverse_.begin(), reverse_.end(), kUnmapped);
  std::uint64_t count = 0;
  for (std::uint64_t lg = 0; lg < forward_.size(); ++lg) {
    const std::uint32_t phys = forward_[lg];
    if (phys == kUnmapped) {
      continue;
    }
    if (phys >= reverse_.size() || reverse_[phys] != kUnmapped) {
      Clear();
      io.Fail("mapping table entry " + std::to_string(lg) + " names physical group " +
              std::to_string(phys) + (phys >= reverse_.size() ? ", past the device" :
                                                                ", mapped twice"));
      return;
    }
    reverse_[phys] = static_cast<std::uint32_t>(lg);
    ++count;
  }
  if (count != mapped_count_) {
    Clear();
    io.Fail("mapping table count mismatch");
  }
}

void MappingTable::Clear() {
  std::fill(forward_.begin(), forward_.end(), kUnmapped);
  std::fill(reverse_.begin(), reverse_.end(), kUnmapped);
  mapped_count_ = 0;
}

}  // namespace fabacus

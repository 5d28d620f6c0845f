#include "src/core/mapping_table.h"

#include <algorithm>
#include <cstring>

namespace fabacus {

MappingTable::MappingTable(const NandConfig& config, Scratchpad* scratchpad)
    : config_(config),
      forward_(config.TotalGroups(), kUnmapped),
      reverse_(config.TotalGroups(), kUnmapped),
      live_(config.TotalBlockGroups(), 0) {
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
    SetReverse(old, kUnmapped);
  } else {
    ++mapped_count_;
  }
  forward_[logical_group] = physical_group;
  SetReverse(physical_group, static_cast<std::uint32_t>(logical_group));
  return old;
}

std::uint32_t MappingTable::ReverseLookup(std::uint32_t physical_group) const {
  FAB_CHECK_LT(physical_group, reverse_.size());
  return reverse_[physical_group];
}

std::uint32_t MappingTable::LiveCount(std::uint64_t block_group) const {
  FAB_CHECK_LT(block_group, live_.size());
  return live_[block_group];
}

void MappingTable::SetReverse(std::uint32_t physical_group, std::uint32_t logical_group) {
  std::uint32_t& live = live_[DecodeGroup(config_, physical_group).block];
  if (reverse_[physical_group] != kUnmapped) {
    --live;
  }
  if (logical_group != kUnmapped) {
    ++live;
  }
  reverse_[physical_group] = logical_group;
}

void MappingTable::Unmap(std::uint64_t logical_group) {
  FAB_CHECK_LT(logical_group, forward_.size());
  const std::uint32_t old = forward_[logical_group];
  if (old != kUnmapped) {
    SetReverse(old, kUnmapped);
    forward_[logical_group] = kUnmapped;
    --mapped_count_;
  }
}

void MappingTable::Restore(std::span<const std::uint8_t> bytes) {
  FAB_CHECK_EQ(bytes.size(), table_bytes());
  std::memcpy(forward_.data(), bytes.data(), table_bytes());
  FAB_CHECK_EQ(Rebuild(), entries()) << "journal maps a physical group twice or past the device";
}

std::uint64_t MappingTable::Rebuild() {
  std::fill(reverse_.begin(), reverse_.end(), kUnmapped);
  std::fill(live_.begin(), live_.end(), 0);
  mapped_count_ = 0;
  for (std::uint64_t lg = 0; lg < forward_.size(); ++lg) {
    const std::uint32_t phys = forward_[lg];
    if (phys == kUnmapped) {
      continue;
    }
    if (phys >= reverse_.size() || reverse_[phys] != kUnmapped) {
      return lg;
    }
    SetReverse(phys, static_cast<std::uint32_t>(lg));
    ++mapped_count_;
  }
  return entries();
}

void MappingTable::Persist(StateIO& io) {
  io.FixedVecU32(forward_, "mapping table size");
  std::uint64_t mapped = mapped_count_;
  io.U64(mapped);
  if (io.saving() || !io.ok()) {
    return;
  }
  // Every mapped entry must name a distinct physical group.
  const std::uint64_t bad = Rebuild();
  if (bad < entries()) {
    const std::uint32_t phys = forward_[bad];
    Clear();
    io.Fail("mapping table entry " + std::to_string(bad) + " names physical group " +
            std::to_string(phys) + (phys >= reverse_.size() ? ", past the device" :
                                                              ", mapped twice"));
    return;
  }
  if (mapped != mapped_count_) {
    Clear();
    io.Fail("mapping table count mismatch");
  }
}

void MappingTable::Clear() {
  std::fill(forward_.begin(), forward_.end(), kUnmapped);
  std::fill(reverse_.begin(), reverse_.end(), kUnmapped);
  std::fill(live_.begin(), live_.end(), 0);
  mapped_count_ = 0;
}

}  // namespace fabacus

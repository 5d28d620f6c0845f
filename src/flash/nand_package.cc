#include "src/flash/nand_package.h"

#include <algorithm>

#include "src/sim/log.h"

namespace fabacus {

NandPackage::NandPackage(const NandConfig& config, int channel, int index)
    : config_(config),
      channel_(channel),
      index_(index),
      // Fresh parts ship erased: accept programs from page 0.
      write_point_(config.blocks_per_plane, 0),
      wear_(config.blocks_per_plane, 0),
      bad_(config.blocks_per_plane, false) {}

Tick NandPackage::Occupy(Tick now, Tick duration) {
  const Tick start = std::max(now, busy_until_);
  busy_until_ = start + duration;
  busy_.AddInterval(start, busy_until_);
  return busy_until_;
}

Tick NandPackage::ReadPages(Tick now, int block, int page) {
  FAB_CHECK_GE(block, 0);
  FAB_CHECK_LT(block, config_.blocks_per_plane);
  FAB_CHECK_GE(page, 0);
  FAB_CHECK_LT(page, config_.pages_per_block);
  reads_.Add();
  return Occupy(now, config_.read_latency);
}

Tick NandPackage::ProgramPages(Tick now, int block, int page) {
  FAB_CHECK_GE(block, 0);
  FAB_CHECK_LT(block, config_.blocks_per_plane);
  FAB_CHECK(!bad_[block]) << "program to bad block " << block;
  FAB_CHECK_NE(write_point_[block], kNeverErased) << "program to un-erased block " << block;
  FAB_CHECK_EQ(page, write_point_[block])
      << "out-of-order program in block " << block << " (pkg " << index_ << ")";
  FAB_CHECK_LT(page, config_.pages_per_block) << "program past end of block " << block;
  ++write_point_[block];
  programs_.Add();
  return Occupy(now, config_.program_latency);
}

Tick NandPackage::EraseBlock(Tick now, int block) {
  FAB_CHECK_GE(block, 0);
  FAB_CHECK_LT(block, config_.blocks_per_plane);
  FAB_CHECK(!bad_[block]) << "erase of bad block " << block;
  write_point_[block] = 0;
  ++wear_[block];
  total_erases_.Add();
  return Occupy(now, config_.erase_latency);
}

bool NandPackage::IsErased(int block, int page) const {
  return write_point_[block] != kNeverErased && page >= write_point_[block];
}

bool NandPackage::IsProgrammed(int block, int page) const {
  return write_point_[block] != kNeverErased && page < write_point_[block];
}

std::uint64_t NandPackage::max_wear() const {
  return *std::max_element(wear_.begin(), wear_.end());
}

void NandPackage::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/reads", &reads_);
  reg->RegisterCounter(prefix + "/programs", &programs_);
  reg->RegisterCounter(prefix + "/erases", &total_erases_);
  reg->RegisterGauge(prefix + "/busy_ns",
                     [this](Tick now) { return static_cast<double>(BusyTime(now)); });
}

std::string NandPackage::StateName() const {
  return "nand/ch" + std::to_string(channel_) + "/pkg" + std::to_string(index_);
}

void NandPackage::Persist(StateIO& io) {
  io.U64(busy_until_);
  busy_.Persist(io);
  io.FixedVecI32(write_point_, "NAND package geometry");
  io.FixedVecU64(wear_, "NAND package geometry");
  io.FixedBits(bad_, "NAND package geometry");
  reads_.Persist(io);
  programs_.Persist(io);
  total_erases_.Persist(io);
}

}  // namespace fabacus

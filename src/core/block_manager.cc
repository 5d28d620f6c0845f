#include "src/core/block_manager.h"

#include <algorithm>

namespace fabacus {

BlockManager::BlockManager(const NandConfig& config)
    : total_(config.TotalBlockGroups()),
      groups_per_block_(config.GroupsPerBlockGroup()),
      valid_(total_),
      valid_count_(total_, 0),
      is_retired_(total_, false) {
  for (std::uint64_t bg = 0; bg < total_; ++bg) {
    free_.push_back(bg);
    valid_[bg].assign(groups_per_block_, false);
  }
}

std::uint64_t BlockManager::AllocBlockGroup() {
  if (free_.empty()) {
    return kNone;
  }
  const std::uint64_t bg = free_.front();
  free_.pop_front();
  return bg;
}

void BlockManager::SealBlockGroup(std::uint64_t bg) {
  FAB_CHECK_LT(bg, total_);
  FAB_CHECK(!is_retired_[bg]);
  used_.push_back(bg);
}

std::uint64_t BlockManager::PickVictim() {
  if (used_.empty()) {
    return kNone;
  }
  const std::uint64_t bg = used_.front();
  used_.pop_front();
  return bg;
}

void BlockManager::OnErased(std::uint64_t bg) {
  FAB_CHECK_LT(bg, total_);
  FAB_CHECK(!is_retired_[bg]);
  FAB_CHECK_EQ(valid_count_[bg], 0u) << "erase of block group with valid data";
  valid_[bg].assign(groups_per_block_, false);
  free_.push_back(bg);
}

void BlockManager::Reset() {
  free_.clear();
  used_.clear();
  retired_count_ = 0;
  for (std::uint64_t bg = 0; bg < total_; ++bg) {
    free_.push_back(bg);
    valid_[bg].assign(groups_per_block_, false);
    valid_count_[bg] = 0;
    is_retired_[bg] = false;
  }
}

namespace {
bool EraseFromDeque(std::deque<std::uint64_t>* dq, std::uint64_t bg) {
  for (auto it = dq->begin(); it != dq->end(); ++it) {
    if (*it == bg) {
      dq->erase(it);
      return true;
    }
  }
  return false;
}
}  // namespace

bool BlockManager::TakeFree(std::uint64_t bg) {
  FAB_CHECK_LT(bg, total_);
  return EraseFromDeque(&free_, bg);
}

bool BlockManager::TakeUsed(std::uint64_t bg) {
  FAB_CHECK_LT(bg, total_);
  return EraseFromDeque(&used_, bg);
}

void BlockManager::Retire(std::uint64_t bg) {
  FAB_CHECK_LT(bg, total_);
  if (!is_retired_[bg]) {
    is_retired_[bg] = true;
    ++retired_count_;
  }
}

void BlockManager::MarkValid(std::uint64_t bg, std::uint32_t slot) {
  FAB_CHECK_LT(bg, total_);
  FAB_CHECK_LT(slot, groups_per_block_);
  if (!valid_[bg][slot]) {
    valid_[bg][slot] = true;
    ++valid_count_[bg];
  }
}

void BlockManager::MarkInvalid(std::uint64_t bg, std::uint32_t slot) {
  FAB_CHECK_LT(bg, total_);
  FAB_CHECK_LT(slot, groups_per_block_);
  if (valid_[bg][slot]) {
    valid_[bg][slot] = false;
    FAB_CHECK_GT(valid_count_[bg], 0u);
    --valid_count_[bg];
  }
}

bool BlockManager::IsValid(std::uint64_t bg, std::uint32_t slot) const {
  FAB_CHECK_LT(bg, total_);
  FAB_CHECK_LT(slot, groups_per_block_);
  return valid_[bg][slot];
}

void BlockManager::Persist(StateIO& io) {
  if (!io.Count(total_, "block manager geometry") ||
      !io.Count(groups_per_block_, "block manager geometry")) {
    return;
  }
  std::vector<std::uint64_t> free(free_.begin(), free_.end());
  std::vector<std::uint64_t> used(used_.begin(), used_.end());
  const auto entry = [&io](std::uint64_t& bg) { io.U64(bg); };
  io.Seq(free, entry);
  io.Seq(used, entry);
  for (std::vector<bool>& bits : valid_) {
    io.FixedBits(bits, "valid bitmap size");
  }
  io.FixedVecU32(valid_count_, "block manager vector size");
  io.FixedBits(is_retired_, "block manager vector size");
  if (io.saving() || !io.ok()) {
    return;
  }
  // A block group sits in at most one pool, at most once.
  std::vector<bool> pooled(total_, false);
  for (const std::vector<std::uint64_t>* pool : {&free, &used}) {
    for (const std::uint64_t bg : *pool) {
      if (bg >= total_ || pooled[bg]) {
        io.Fail("block group " + std::to_string(bg) +
                (bg >= total_ ? " is past the device" : " is pooled twice"));
        return;
      }
      pooled[bg] = true;
    }
  }
  free_.assign(free.begin(), free.end());
  used_.assign(used.begin(), used.end());
  retired_count_ = static_cast<std::size_t>(
      std::count(is_retired_.begin(), is_retired_.end(), true));
}

}  // namespace fabacus

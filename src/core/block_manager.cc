#include "src/core/block_manager.h"

#include <algorithm>

namespace fabacus {

BlockManager::BlockManager(const NandConfig& config)
    : total_(config.TotalBlockGroups()), is_retired_(total_, false) {
  Reset();
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
  free_.push_back(bg);
}

void BlockManager::Reset() {
  free_.clear();
  used_.clear();
  retired_count_ = 0;
  for (std::uint64_t bg = 0; bg < total_; ++bg) {
    free_.push_back(bg);
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

void BlockManager::Persist(StateIO& io) {
  if (!io.Count(total_, "block manager geometry")) {
    return;
  }
  std::vector<std::uint64_t> free(free_.begin(), free_.end());
  std::vector<std::uint64_t> used(used_.begin(), used_.end());
  const auto entry = [&io](std::uint64_t& bg) { io.U64(bg); };
  io.Seq(free, entry);
  io.Seq(used, entry);
  io.FixedBits(is_retired_, "block manager vector size");
  if (io.saving() || !io.ok()) {
    return;
  }
  // A block group sits in at most one pool, at most once, and a retired one
  // in neither: allocating or sealing it would trip a CHECK later.
  std::vector<bool> pooled(total_, false);
  for (const std::vector<std::uint64_t>* pool : {&free, &used}) {
    for (const std::uint64_t bg : *pool) {
      if (bg >= total_ || pooled[bg] || is_retired_[bg]) {
        io.Fail("block group " + std::to_string(bg) +
                (bg >= total_ ? " is past the device"
                              : pooled[bg] ? " is pooled twice" : " is pooled but retired"));
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

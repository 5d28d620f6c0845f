#include "src/core/mapping_cache.h"

namespace fabacus {

MappingCache::MappingCache(std::uint64_t total_entries, const MappingCacheConfig& config)
    : config_(config), table_(total_entries, kUnmapped) {
  FAB_CHECK_GT(config_.entries_per_page, 0u);
  // cache_pages == 0 is the degenerate always-miss cache: every Lookup pays
  // the miss cost and every Update pays miss + write-back (nothing can stay
  // resident to absorb the dirty bit).
}

void MappingCache::FetchPage(std::uint64_t page_index, Tick* cost) {
  ++misses_;
  *cost += config_.miss_cost;
  if (config_.cache_pages == 0) {
    return;  // nowhere to cache the fetched page
  }
  if (lru_.size() >= config_.cache_pages) {
    const CachedPage victim = lru_.back();
    if (victim.dirty) {
      ++writebacks_;
      *cost += config_.writeback_cost;
    }
    index_.erase(victim.page_index);
    lru_.pop_back();
  }
  lru_.push_front(CachedPage{page_index, false});
  index_[page_index] = lru_.begin();
}

std::uint32_t MappingCache::Lookup(std::uint64_t logical_group, Tick* cost) {
  FAB_CHECK_LT(logical_group, table_.size());
  *cost = config_.hit_cost;
  const std::uint64_t page = logical_group / config_.entries_per_page;
  auto it = index_.find(page);
  if (it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
  } else {
    FetchPage(page, cost);
  }
  return table_[logical_group];
}

void MappingCache::Update(std::uint64_t logical_group, std::uint32_t physical_group,
                          Tick* cost) {
  FAB_CHECK_LT(logical_group, table_.size());
  *cost = config_.hit_cost;
  const std::uint64_t page = logical_group / config_.entries_per_page;
  auto it = index_.find(page);
  if (it != index_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    FetchPage(page, cost);
  }
  if (lru_.empty()) {
    // Zero-capacity cache: the dirtied page flushes straight back out.
    ++writebacks_;
    *cost += config_.writeback_cost;
  } else {
    lru_.begin()->dirty = true;
  }
  table_[logical_group] = physical_group;
}

}  // namespace fabacus

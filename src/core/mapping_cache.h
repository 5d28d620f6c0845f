// Demand-cached page-group mapping (the DFTL-style alternative the paper
// rejects in favour of a scratchpad-resident full table, §4.3). The full
// logical-to-physical table lives in slow memory (DDR3L or flash); a bounded
// SRAM cache holds recently-used mapping *pages* (runs of consecutive
// entries, as DFTL caches translation pages). Lookups report their cost so
// the mapping ablation can replay real access traces and measure hit ratios
// rather than assuming them.
#ifndef SRC_CORE_MAPPING_CACHE_H_
#define SRC_CORE_MAPPING_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/sim/log.h"
#include "src/sim/time.h"

namespace fabacus {

struct MappingCacheConfig {
  // Entries per cached translation page (DFTL: one flash page of mappings).
  std::uint32_t entries_per_page = 2048;
  // Cached translation pages (SRAM budget / page size). 0 is legal and means
  // an always-miss cache: every access pays the slow-memory price.
  std::uint32_t cache_pages = 64;
  Tick hit_cost = 150;        // ns: SRAM lookup
  Tick miss_cost = 81 * kUs;  // ns: fetch the translation page from flash
  // Evicting a dirty translation page writes it back first.
  Tick writeback_cost = 200 * kUs;
};

class MappingCache {
 public:
  static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

  MappingCache(std::uint64_t total_entries, const MappingCacheConfig& config);

  // Translates `logical_group`, charging *cost with the hit or miss price
  // (plus a write-back if a dirty page is evicted).
  std::uint32_t Lookup(std::uint64_t logical_group, Tick* cost);

  // Installs a mapping, dirtying the cached translation page.
  void Update(std::uint64_t logical_group, std::uint32_t physical_group, Tick* cost);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }
  double HitRatio() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  std::size_t cached_pages() const { return lru_.size(); }

 private:
  struct CachedPage {
    std::uint64_t page_index;
    bool dirty = false;
  };
  using LruList = std::list<CachedPage>;

  // Charges a miss (and possibly an eviction) and caches the page.
  void FetchPage(std::uint64_t page_index, Tick* cost);

  MappingCacheConfig config_;
  std::vector<std::uint32_t> table_;  // backing store (slow memory)
  LruList lru_;                       // front = most recent
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace fabacus

#endif  // SRC_CORE_MAPPING_CACHE_H_

#include "src/core/range_lock.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace fabacus {
namespace {

bool Overlaps(std::uint64_t a_first, std::uint64_t a_last, std::uint64_t b_first,
              std::uint64_t b_last) {
  return a_first <= b_last && b_first <= a_last;
}

// Two lock requests conflict when their ranges overlap and at least one of
// them intends to write (reader/reader sharing is allowed).
bool ModesConflict(LockMode a, LockMode b) {
  return a == LockMode::kWrite || b == LockMode::kWrite;
}

}  // namespace

void RangeLock::Reset() {
  held_.clear();
  by_id_.clear();
  spans_.clear();
  waiters_.clear();
}

template <typename Visit>
bool RangeLock::AnyConflicting(std::uint64_t first, std::uint64_t last, LockMode mode,
                               Visit&& visit) const {
  if (held_.empty()) {
    return false;
  }
  // A held range that starts more than the longest held span before `first`
  // ends before `first`, so the scan starts there.
  const std::uint64_t longest = *spans_.rbegin();
  const std::uint64_t from = first > longest ? first - longest : 0;
  for (auto it = held_.lower_bound(from); it != held_.end() && it->first <= last; ++it) {
    const Held& h = it->second;
    if (h.last >= first && ModesConflict(h.mode, mode) && visit(h)) {
      return true;
    }
  }
  return false;
}

bool RangeLock::Conflicts(std::uint64_t first, std::uint64_t last, LockMode mode) const {
  return AnyConflicting(first, last, mode, [](const Held&) { return true; });
}

std::vector<std::uint16_t> RangeLock::CollectBlockingTenants(std::uint64_t first,
                                                             std::uint64_t last,
                                                             LockMode mode) const {
  std::vector<std::uint16_t> blockers;
  AnyConflicting(first, last, mode, [&blockers](const Held& h) {
    blockers.push_back(h.tenant);
    return false;
  });
  for (const Waiter& w : waiters_) {
    if (Overlaps(w.first, w.last, first, last) && ModesConflict(w.mode, mode)) {
      blockers.push_back(w.tenant);
    }
  }
  std::sort(blockers.begin(), blockers.end());
  blockers.erase(std::unique(blockers.begin(), blockers.end()), blockers.end());
  return blockers;
}

bool RangeLock::TryAcquire(std::uint64_t first, std::uint64_t last, LockMode mode, LockId* id,
                           std::uint16_t tenant) {
  FAB_CHECK_LE(first, last);
  if (Conflicts(first, last, mode)) {
    return false;
  }
  const LockId new_id = next_id_++;
  by_id_.emplace(new_id, held_.emplace(first, Held{last, mode, tenant}));
  spans_.insert(last - first);
  *id = new_id;
  return true;
}

void RangeLock::Acquire(std::uint64_t first, std::uint64_t last, LockMode mode,
                        Granted granted, std::uint16_t tenant) {
  FAB_CHECK_LE(first, last);
  // FIFO fairness: even if the range is currently free, queue behind any
  // earlier conflicting waiter.
  bool behind_waiter = false;
  for (const Waiter& w : waiters_) {
    if (Overlaps(w.first, w.last, first, last) && ModesConflict(w.mode, mode)) {
      behind_waiter = true;
      break;
    }
  }
  LockId id = 0;
  if (!behind_waiter && TryAcquire(first, last, mode, &id, tenant)) {
    granted(id);
    return;
  }
  if (observer_) {
    // Attribute the wait before queueing, so the blocker set excludes us.
    for (std::uint16_t holder : CollectBlockingTenants(first, last, mode)) {
      observer_(tenant, holder);
    }
  }
  waiters_.push_back(Waiter{first, last, mode, tenant, std::move(granted)});
}

void RangeLock::Release(LockId id) {
  auto it = by_id_.find(id);
  FAB_CHECK(it != by_id_.end()) << "release of unknown lock id " << id;
  const HeldMap::iterator held = it->second;
  spans_.erase(spans_.find(held->second.last - held->first));
  held_.erase(held);
  by_id_.erase(it);
  DispatchWaiters();
}

void RangeLock::DispatchWaiters() {
  if (dispatching_) {
    return;  // re-entrancy guard: a grant callback may Release() another lock
  }
  dispatching_ = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Grant any waiter compatible with held locks and with every earlier
    // still-queued waiter (to preserve FIFO ordering between conflicters).
    std::vector<Waiter> still_waiting;
    std::vector<std::pair<LockId, Granted>> to_grant;
    for (auto& w : waiters_) {
      bool blocked_by_earlier = false;
      for (const Waiter& earlier : still_waiting) {
        if (Overlaps(earlier.first, earlier.last, w.first, w.last) &&
            ModesConflict(earlier.mode, w.mode)) {
          blocked_by_earlier = true;
          break;
        }
      }
      LockId id = 0;
      if (!blocked_by_earlier && TryAcquire(w.first, w.last, w.mode, &id, w.tenant)) {
        to_grant.emplace_back(id, std::move(w.granted));
        progressed = true;
      } else {
        still_waiting.push_back(std::move(w));
      }
    }
    waiters_.assign(std::make_move_iterator(still_waiting.begin()),
                    std::make_move_iterator(still_waiting.end()));
    for (auto& [id, cb] : to_grant) {
      cb(id);
    }
  }
  dispatching_ = false;
}

}  // namespace fabacus

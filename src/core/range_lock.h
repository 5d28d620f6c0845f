// Flashvisor's range lock (paper §4.3, "Protection and access control").
//
// Instead of per-page permission bits in the (persistent) mapping table, the
// paper guards flash-mapped data sections with an in-memory range lock built
// on a red-black tree: the key is the first page-group number of a mapping
// request, each node is augmented with the last group number and the request
// type. A read mapping is blocked while an overlapping *write* mapping is
// live; a write mapping is blocked while *any* overlapping mapping is live.
//
// The tree is the standard library's: held ranges sit in a std::multimap
// keyed by first group. A multiset of held spans (last - first) bounds every
// overlap query to the keys in [first - longest span, last], since no range
// that starts earlier can reach `first`. Waiters form an asynchronous FIFO
// queue: Acquire() invokes the grant callback immediately when compatible,
// otherwise the request waits and is granted on Release(). FIFO fairness
// prevents writer starvation: a waiter is only granted if no earlier waiter
// with a conflicting overlapping range is still queued.
#ifndef SRC_CORE_RANGE_LOCK_H_
#define SRC_CORE_RANGE_LOCK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/log.h"
#include "src/sim/snapshot.h"

namespace fabacus {

enum class LockMode { kRead, kWrite };

class RangeLock : public Snapshottable {
 public:
  using LockId = std::uint64_t;
  // Called when the request is granted, with the lock id to release later.
  using Granted = std::function<void(LockId)>;

  RangeLock() = default;
  RangeLock(const RangeLock&) = delete;
  RangeLock& operator=(const RangeLock&) = delete;

  // Requests [first_group, last_group] (inclusive) in `mode`. If compatible
  // with all held locks (and no conflicting earlier waiter), `granted` runs
  // before Acquire returns; otherwise it runs during a later Release().
  // `tenant` tags the request for contention attribution (docs/QOS.md).
  void Acquire(std::uint64_t first_group, std::uint64_t last_group, LockMode mode,
               Granted granted, std::uint16_t tenant = 0);

  // Non-blocking variant: returns true and sets *id on success.
  bool TryAcquire(std::uint64_t first_group, std::uint64_t last_group, LockMode mode,
                  LockId* id, std::uint16_t tenant = 0);

  // QoS attribution hook: fired once per (queued request, distinct blocking
  // tenant) at the moment a request has to wait — the holder set is every
  // tenant holding or already queued for a conflicting overlapping range,
  // deduplicated and tenant-sorted for determinism.
  using ContentionObserver = std::function<void(std::uint16_t waiter, std::uint16_t holder)>;
  void set_contention_observer(ContentionObserver obs) { observer_ = std::move(obs); }

  // Releases a held lock; may synchronously grant queued waiters.
  void Release(LockId id);

  // Drops every held lock and queued waiter without granting anything (crash
  // recovery: the holders' continuations are gone). Lock ids keep advancing
  // so a stale pre-crash id can never alias a post-recovery lock.
  void Reset();

  // True when [first, last] conflicts with a held lock of incompatible mode.
  bool Conflicts(std::uint64_t first_group, std::uint64_t last_group, LockMode mode) const;

  std::size_t held_count() const { return held_.size(); }
  std::size_t waiter_count() const { return waiters_.size(); }

  // Snapshottable. Grant callbacks are closures, so a lock can only be
  // checkpointed or restored while quiescent (nothing held, nobody waiting);
  // saving CHECK-enforces that, and the section holds the id cursor alone.
  std::string StateName() const override { return "ftl/lock"; }
  int StateVersion() const override { return 2; }  // v2: no grant/wait totals
  void Persist(StateIO& io) override {
    if (!held_.empty() || !waiters_.empty()) {
      io.Fail("range lock has held locks or waiters");
      return;
    }
    io.U64(next_id_);
  }

 private:
  // A granted range; its first group is the key it is held under.
  struct Held {
    std::uint64_t last;
    LockMode mode;
    std::uint16_t tenant;
  };
  using HeldMap = std::multimap<std::uint64_t, Held>;

  struct Waiter {
    std::uint64_t first;
    std::uint64_t last;
    LockMode mode;
    std::uint16_t tenant = 0;
    Granted granted;
  };

  // Calls `visit` on each held range that overlaps [first, last] in a mode
  // conflicting with `mode`, until `visit` returns true; returns whether it
  // did.
  template <typename Visit>
  bool AnyConflicting(std::uint64_t first, std::uint64_t last, LockMode mode,
                      Visit&& visit) const;
  void DispatchWaiters();
  // Distinct tenants currently blocking [first, last] in `mode`: conflicting
  // overlapping holders plus earlier conflicting queued waiters, sorted.
  std::vector<std::uint16_t> CollectBlockingTenants(std::uint64_t first, std::uint64_t last,
                                                    LockMode mode) const;

  HeldMap held_;
  std::unordered_map<LockId, HeldMap::iterator> by_id_;
  std::multiset<std::uint64_t> spans_;  // last - first of every held range
  std::deque<Waiter> waiters_;
  LockId next_id_ = 1;
  bool dispatching_ = false;
  ContentionObserver observer_;
};

}  // namespace fabacus

#endif  // SRC_CORE_RANGE_LOCK_H_

#include "src/fleet/fleet.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <queue>
#include <utility>

#include "src/sim/json.h"
#include "src/sim/log.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_runner.h"

namespace fabacus {
namespace {

std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stable per-instance seed: the same (fleet seed, shard, workload, slot)
// always prepares the same dataset, independent of execution order — the
// partitioned and lockstep paths must produce identical flash contents.
std::uint64_t InstanceSeed(std::uint64_t base, int shard, int workload, std::size_t slot) {
  std::uint64_t z = base;
  z = Mix64(z + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1));
  z = Mix64(z + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(workload) + 1));
  z = Mix64(z + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(slot) + 1));
  return z;
}

void WriteHistogramSummary(JsonWriter* w, const HistogramSummary& s) {
  w->BeginObject();
  w->Field("count", static_cast<double>(s.count));
  if (s.count > 0) {
    w->Field("min", s.min)
        .Field("mean", s.mean)
        .Field("p50", s.p50)
        .Field("p95", s.p95)
        .Field("p99", s.p99)
        .Field("max", s.max);
  }
  w->EndObject();
}

constexpr std::size_t kQueueDepthBuckets = 32;

// Synthetic service model: nanoseconds of device time per modelled megabyte
// of request input. Sized so the default kernel mix serves in the same
// order of magnitude as a small real device (~0.1 ms per request).
constexpr double kSyntheticNsPerMb = 50000.0;

}  // namespace

std::string FleetConfig::Validate() const {
  if (num_devices < 1) {
    return "num_devices must be >= 1, got " + std::to_string(num_devices);
  }
  const std::string dev = device.Validate();
  if (!dev.empty()) {
    return "device config: " + dev;
  }
  const std::string tr = traffic.Validate();
  if (!tr.empty()) {
    return "traffic config: " + tr;
  }
  if (queue_depth < 1) {
    return "queue_depth must be >= 1";
  }
  if (max_batch < 1) {
    return "max_batch must be >= 1, got " + std::to_string(max_batch);
  }
  if (max_route_attempts < 1 || max_route_attempts > num_devices) {
    return "max_route_attempts must be in [1, num_devices], got " +
           std::to_string(max_route_attempts);
  }
  if (slo_ms <= 0.0) {
    return "slo_ms must be positive, got " + std::to_string(slo_ms);
  }
  const std::string h = health.Validate();
  if (!h.empty()) {
    return "health config: " + h;
  }
  const std::string f = faults.Validate(num_devices);
  if (!f.empty()) {
    return "fault config: " + f;
  }
  if (max_request_retries < 0) {
    return "max_request_retries must be >= 0, got " + std::to_string(max_request_retries);
  }
  if (max_request_retries > 0 && retry_backoff < 1) {
    return "retry_backoff must be a positive tick count when retries are enabled";
  }
  if (hedge_requests && hedge_delay < 1) {
    return "hedge_delay must be a positive tick count";
  }
  if (hedge_requests && num_devices < 2) {
    return "hedged requests need at least two devices to duplicate onto";
  }
  if (request_timeout_ms < 0.0) {
    return "request_timeout_ms must be >= 0, got " + std::to_string(request_timeout_ms);
  }
  if (synthetic_service && faults.Any()) {
    return "synthetic service models no device internals to inject faults into; "
           "disable faults or use real devices";
  }
  if (execution == Execution::kPartitioned && !CanPartition()) {
    return "partitioned execution needs open-loop traffic, an oblivious placement "
           "policy, max_route_attempts == 1 and no fault/retry/hedge machinery";
  }
  return "";
}

bool FleetConfig::CanPartition() const {
  return traffic.model == TrafficConfig::Model::kOpenLoop && PolicyIsOblivious(policy) &&
         max_route_attempts == 1 && !faults.Any() && !hedge_requests &&
         max_request_retries == 0;
}

// One independently-simulated device plus its fleet-side serving state.
struct FleetSim::Shard {
  Shard(std::size_t queue_slots, const HealthConfig& health_cfg)
      : queue(queue_slots), health(health_cfg), breaker(health_cfg) {}

  int index = 0;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<FlashAbacus> dev;
  AdmissionQueue queue;

  bool busy = false;
  std::vector<FleetRequest*> current_batch;

  // Installed (flash-resident) workload instances, reusable across requests.
  struct CachedInstance {
    std::unique_ptr<AppInstance> inst;
    std::uint64_t seed = 0;
    bool in_use = false;
    // The workload's Reference() for this slot's inputs, computed at the
    // slot's first verification; every later request on the slot is compared
    // against it. Never snapshotted: a slot rebuilt from a checkpoint, or
    // dropped by crash recovery, recomputes it on its next verification.
    std::optional<std::vector<Workload::Expected>> reference;
  };
  std::vector<std::vector<CachedInstance>> cache;  // [workload_idx]
  // Synthetic service mode: which workloads' datasets this shard has
  // "installed" (first request per workload pays the install, later ones hit).
  std::vector<char> synthetic_installed;  // [workload_idx]

  FleetDeviceStats stats;
  bool verified = true;

  // --- Fault-tolerance state (docs/FLEET.md "Fleet fault tolerance") -------
  HealthTracker health;
  CircuitBreaker breaker;
  bool down = false;   // crashed, recovery pending
  bool dead = false;   // permanently failed
  Tick down_since = 0;
  Tick stall_until = 0;        // brownout window end
  double stall_factor = 1.0;   // service-time multiplier inside the window
  // Bumped on every crash so the torn batch's pending batch-done event is
  // recognized as stale and ignored.
  std::uint64_t batch_gen = 0;
  bool last_batch_failed = false;  // io_failures climbed during the batch
  double last_batch_ms = 0.0;
  // Partition-safe per-shard tallies (no shared fleet counter to race on).
  std::uint64_t timeouts = 0;
  std::uint64_t evictions = 0;
  // Snapshot-mode recovery: the device's last periodic checkpoint plus the
  // install-cache directory that goes with it.
  int batches_since_checkpoint = 0;
  std::vector<std::uint8_t> checkpoint;
  std::vector<std::uint8_t> checkpoint_cache;
};

// Advances a set of shards through their arrival / batch-completion / fault
// events in deterministic (time, sequence) order. The lockstep path runs one
// loop over every shard; the partitioned path runs one loop per shard
// (pre-routed arrivals, no router, no closed-loop generator, no faults) on
// the sweep pool.
struct FleetSim::ServeLoop {
  FleetSim* fleet;
  std::vector<Shard*> shards;             // lockstep: indexed by device id
  ShardRouter* router = nullptr;          // null = arrivals are pre-routed
  TrafficGenerator* gen = nullptr;        // closed-loop source (lockstep only)
  std::deque<FleetRequest>* pool = nullptr;  // owner of generated requests
  std::vector<FleetFaultEvent> fault_events;  // materialized plan (lockstep)

  // Streaming open-loop source (lockstep only): exactly one future generator
  // arrival lives in the heap at a time, so the loop never materializes the
  // whole schedule. Generator arrivals carry pre-assigned sequence numbers
  // stream_seq_lo + id — the numbers an eager push of the full schedule
  // would have produced — so event order is bit-identical to the eager path.
  TrafficGenerator* stream = nullptr;
  std::uint64_t stream_seq_lo = 0;  // seq of the window's first arrival
  std::uint64_t stream_seq_hi = 0;  // one past the last generator arrival seq
  int stream_base_id = -1;          // id of the window's first arrival
  // Retirement hooks (lockstep): fold each terminal request into the fleet's
  // streaming aggregates the moment it resolves, and — when recycling is safe
  // (no hedge timers holding stale pointers) — return its pool slot to a free
  // list so an unbounded request stream runs in O(in-flight) memory.
  bool retire_inline = false;
  bool recycle = false;
  std::vector<FleetRequest*> free_list;

  struct Ev {
    enum class Kind { kArrival, kBatchDone, kFault, kRecover, kHedge };
    Tick t = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kArrival;
    FleetRequest* req = nullptr;  // kArrival / kHedge payload
    Shard* shard = nullptr;       // kBatchDone / kRecover payload
    std::uint64_t token = 0;      // kBatchDone staleness token (batch_gen)
    int fault = 0;                // kFault: index into fault_events
  };
  struct EvAfter {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, EvAfter> heap;
  std::uint64_t seq = 0;

  void PushArrival(FleetRequest* r) { PushArrivalAt(r, r->arrival); }
  void PushArrivalAt(FleetRequest* r, Tick t) {
    Ev e;
    e.t = t;
    e.seq = seq++;
    e.kind = Ev::Kind::kArrival;
    e.req = r;
    heap.push(e);
  }
  void PushBatchDone(Shard* s, Tick t) {
    Ev e;
    e.t = t;
    e.seq = seq++;
    e.kind = Ev::Kind::kBatchDone;
    e.shard = s;
    e.token = s->batch_gen;
    heap.push(e);
  }
  void PushFault(int idx, Tick t) {
    Ev e;
    e.t = t;
    e.seq = seq++;
    e.kind = Ev::Kind::kFault;
    e.fault = idx;
    heap.push(e);
  }
  void PushRecover(Shard* s, Tick t) {
    Ev e;
    e.t = t;
    e.seq = seq++;
    e.kind = Ev::Kind::kRecover;
    e.shard = s;
    heap.push(e);
  }
  void PushHedge(FleetRequest* r, Tick t) {
    Ev e;
    e.t = t;
    e.seq = seq++;
    e.kind = Ev::Kind::kHedge;
    e.req = r;
    heap.push(e);
  }

  // Pulls the next generator arrival into the heap (streaming path). Called
  // once to prime the loop and again as each generator arrival is popped, so
  // the heap holds at most one future arrival. Inter-arrival gaps are
  // non-negative, so the refill can never sort before the arrival that
  // triggered it.
  void PushNextStreamArrival() {
    FleetRequest next;
    if (stream == nullptr || !stream->NextArrival(&next)) {
      return;
    }
    next.arrival += fleet->resume_base_;
    FleetRequest* slot;
    if (!free_list.empty()) {
      slot = free_list.back();
      free_list.pop_back();
      *slot = next;
    } else {
      pool->push_back(next);
      slot = &pool->back();
    }
    if (stream_base_id < 0) {
      stream_base_id = slot->id;  // a resumed window's ids continue past 0
    }
    Ev e;
    e.t = slot->arrival;
    e.seq = stream_seq_lo + static_cast<std::uint64_t>(slot->id - stream_base_id);
    e.kind = Ev::Kind::kArrival;
    e.req = slot;
    heap.push(e);
  }

  void Run() {
    while (!heap.empty()) {
      const Ev e = heap.top();
      heap.pop();
      switch (e.kind) {
        case Ev::Kind::kArrival:
          if (stream != nullptr && e.seq >= stream_seq_lo && e.seq < stream_seq_hi) {
            PushNextStreamArrival();  // a generator arrival: refill the window
          }
          OnArrival(e.req, e.t);
          break;
        case Ev::Kind::kBatchDone:
          OnBatchDone(e.shard, e.t, e.token);
          break;
        case Ev::Kind::kFault:
          OnFault(fault_events[static_cast<std::size_t>(e.fault)], e.t);
          break;
        case Ev::Kind::kRecover:
          OnRecover(e.shard, e.t);
          break;
        case Ev::Kind::kHedge:
          OnHedge(e.req, e.t);
          break;
      }
    }
  }

  Shard* ShardByIndex(int index) const {
    // Lockstep loops hold every shard in device order — index directly.
    const std::size_t i = static_cast<std::size_t>(index);
    if (i < shards.size() && shards[i]->index == index) {
      return shards[i];
    }
    for (Shard* s : shards) {
      if (s->index == index) {
        return s;
      }
    }
    FAB_CHECK(false) << "no shard " << index << " in this serve loop";
    return nullptr;
  }

  // A request reached a terminal outcome on the lockstep path: stream it into
  // the fleet aggregates now instead of retaining it for a post-run walk.
  void Retire(FleetRequest* r) {
    if (!retire_inline) {
      return;
    }
    fleet->RetireRequest(*r);
    if (recycle) {
      free_list.push_back(r);
    }
  }

  std::vector<int> Outstanding() const {
    std::vector<int> out(static_cast<std::size_t>(fleet->config_.num_devices), 0);
    for (const Shard* s : shards) {
      out[static_cast<std::size_t>(s->index)] =
          static_cast<int>(s->queue.depth() + s->current_batch.size());
    }
    return out;
  }

  // Is any of the fault-tolerance machinery live? Every condition here forces
  // lockstep execution, so partition-legal configs take the legacy serving
  // path byte for byte.
  bool FaultsActive() const {
    const FleetConfig& c = fleet->config_;
    return c.faults.Any() || c.policy == PlacementPolicy::kHealthAware ||
           c.max_request_retries > 0 || c.hedge_requests;
  }

  bool HealthAware() const {
    return fleet->config_.policy == PlacementPolicy::kHealthAware;
  }

  std::vector<ShardHealthView> HealthViews(Tick now) {
    std::vector<ShardHealthView> views(static_cast<std::size_t>(fleet->config_.num_devices));
    for (Shard* s : shards) {
      s->breaker.Advance(now);
      ShardHealthView& v = views[static_cast<std::size_t>(s->index)];
      v.score = s->health.Score();
      if (s->down || s->dead) {
        v.routable = false;
        continue;
      }
      switch (s->breaker.state()) {
        case BreakerState::kClosed:
          break;
        case BreakerState::kOpen:
          v.routable = false;
          break;
        case BreakerState::kHalfOpen:
          v.probing = true;
          v.routable = s->breaker.AllowRequest();
          break;
      }
    }
    return views;
  }

  // May this shard take a new admission right now? Down/dead shards refuse
  // every policy; breaker gating applies only under health-aware routing so
  // the oblivious baselines keep their legacy behavior (and shed more under
  // failure — the contrast the chaos tests measure).
  bool CanAdmit(const Shard* s, const ShardHealthView& v) const {
    if (s->down || s->dead) {
      return false;
    }
    if (HealthAware() && !v.routable) {
      return false;
    }
    return true;
  }

  static bool CopyAlive(const FleetRequest* c) {
    return c != nullptr && !c->cancelled && c->outcome == FleetRequest::Outcome::kPending &&
           (c->queued_on >= 0 || c->in_flight);
  }

  // Enqueue `r` on `s`, displacing a strictly-lower-priority victim when the
  // SLO-aware shedder is on and the queue is full. Marks probes.
  bool AdmitTo(Shard* s, FleetRequest* r, bool probing, Tick now) {
    bool ok = s->queue.TryEnqueue(r, now);
    if (!ok && fleet->config_.priority_shedding) {
      FleetRequest* victim = s->queue.EvictWorseThan(r->priority, now);
      if (victim != nullptr) {
        ++s->evictions;
        victim->queued_on = -1;
        ShedRequest(victim, s, now);
        ok = s->queue.TryEnqueue(r, now);
        FAB_CHECK(ok) << "eviction freed no slot";
      }
    }
    if (!ok) {
      return false;
    }
    r->queued_on = s->index;
    r->device = s->index;
    if (probing) {
      r->is_probe = true;
      s->breaker.OnProbeDispatched();
      s->stats.probes += 1;
    }
    return true;
  }

  // A request leaves the fleet unserved at admission time: rejected by every
  // routing attempt, or displaced by the priority shedder.
  void ShedRequest(FleetRequest* r, Shard* charged, Tick now) {
    if (r->is_hedge) {
      // A displaced duplicate dies quietly; the primary still carries the
      // logical request.
      r->cancelled = true;
      ++fleet->tally_.hedges_cancelled;
      return;
    }
    if (CopyAlive(r->hedge_peer)) {
      r->cancelled = true;  // the duplicate still carries it
      return;
    }
    r->outcome = FleetRequest::Outcome::kShed;
    r->device = -1;
    r->queued_on = -1;
    charged->stats.shed += 1;
    ClientDone(r, now);  // a shed response still frees the client to retry
    Retire(r);
  }

  void OnArrival(FleetRequest* r, Tick now) {
    if (r->cancelled || r->outcome != FleetRequest::Outcome::kPending) {
      return;  // resolved while the event was in flight (hedge race)
    }
    Shard* admitted = nullptr;
    int primary = -1;
    if (router == nullptr) {
      primary = r->device;  // pre-routed
      Shard* s = ShardByIndex(primary);
      if (AdmitTo(s, r, false, now)) {
        admitted = s;
      }
    } else if (!FaultsActive() && PolicyIsOblivious(fleet->config_.policy)) {
      // Fast path for the common healthy-oblivious case: no shard can be
      // down, dead or breaker-gated, and round-robin/affinity routing reads
      // neither outstanding counts nor health views — skip building both
      // (two O(num_devices) allocations per arrival at fleet scale).
      RouteState state;
      for (int attempt = 0; attempt < fleet->config_.max_route_attempts; ++attempt) {
        const int d = router->Route(*r, state, attempt);
        if (attempt == 0) {
          primary = d;
        } else {
          ++r->route_retries;
        }
        Shard* s = ShardByIndex(d);
        if (AdmitTo(s, r, false, now)) {
          admitted = s;
          break;
        }
      }
    } else {
      const std::vector<int> outstanding = Outstanding();
      const std::vector<ShardHealthView> views = HealthViews(now);
      RouteState state;
      state.outstanding = &outstanding;
      state.health = &views;
      for (int attempt = 0; attempt < fleet->config_.max_route_attempts; ++attempt) {
        const int d = router->Route(*r, state, attempt);
        if (attempt == 0) {
          primary = d;
        } else {
          ++r->route_retries;
        }
        Shard* s = ShardByIndex(d);
        if (!CanAdmit(s, views[static_cast<std::size_t>(d)])) {
          continue;  // the refusal still consumed a routing attempt
        }
        const bool probe = HealthAware() && views[static_cast<std::size_t>(d)].probing;
        if (AdmitTo(s, r, probe, now)) {
          admitted = s;
          break;
        }
      }
    }
    if (admitted == nullptr) {
      ShedRequest(r, ShardByIndex(primary), now);
      return;
    }
    if (router != nullptr && fleet->config_.hedge_requests && !r->is_hedge && !r->hedged &&
        r->priority == RequestPriority::kLatency) {
      PushHedge(r, now + fleet->config_.hedge_delay);
    }
    if (!admitted->busy) {
      StartBatch(admitted, now);
    }
  }

  void OnBatchDone(Shard* s, Tick now, std::uint64_t token) {
    if (token != s->batch_gen) {
      return;  // the batch was torn by a crash; its requests are handled
    }
    const std::vector<FleetRequest*> batch = std::move(s->current_batch);
    s->current_batch.clear();
    s->busy = false;
    const bool failed = s->last_batch_failed;
    if (failed) {
      s->health.OnFailure();
    } else {
      s->health.OnSuccess(s->last_batch_ms);
    }
    if (FaultsActive()) {
      s->breaker.OnOutcome(!failed, now, s->health.error_ewma());
    }
    for (FleetRequest* r : batch) {
      r->in_flight = false;
      if (r->is_probe) {
        r->is_probe = false;
        s->breaker.OnProbeOutcome(!failed, now);
      }
      if (r->cancelled) {
        continue;  // lost the hedge race while in flight
      }
      if (failed) {
        OnCopyFailed(s, r, now);
      } else {
        OnCopyServed(s, r, now);
      }
    }
    if (!s->queue.empty() && !s->down && !s->dead) {
      StartBatch(s, now);
    }
  }

  // One physical copy (primary or hedge duplicate) finished cleanly.
  void OnCopyServed(Shard* s, FleetRequest* copy, Tick now) {
    FleetRequest* logical = copy->is_hedge ? copy->hedge_peer : copy;
    const double timeout_ms = fleet->config_.request_timeout_ms;
    if (timeout_ms > 0.0 && TicksToMs(copy->complete - logical->arrival) > timeout_ms) {
      ++s->timeouts;
      OnCopyFailed(s, copy, now);
      return;
    }
    if (copy->is_hedge) {
      Cancel(logical, now);  // first wins: the primary copy loses the race
      copy->outcome = FleetRequest::Outcome::kServed;
      logical->outcome = FleetRequest::Outcome::kServed;
      logical->complete = copy->complete;
      logical->device = s->index;
      ++fleet->tally_.hedges_won;
    } else {
      Cancel(copy->hedge_peer, now);
      copy->outcome = FleetRequest::Outcome::kServed;
    }
    s->stats.served += 1;
    ClientDone(logical, copy->complete);
    Retire(logical);
  }

  // One physical copy was lost: torn by a crash, an uncorrectable I/O error
  // in its batch, or a timeout. The logical request survives while its other
  // copy is still live; otherwise it burns a retry or fails for good.
  void OnCopyFailed(Shard* s, FleetRequest* copy, Tick now) {
    FleetRequest* logical = copy->is_hedge ? copy->hedge_peer : copy;
    FleetRequest* other = copy->hedge_peer;
    copy->cancelled = true;  // this physical copy is spent
    if (copy->is_hedge) {
      copy->outcome = FleetRequest::Outcome::kFailed;
    }
    if (CopyAlive(other)) {
      return;
    }
    FailLogical(logical, s, now);
  }

  void FailLogical(FleetRequest* r, Shard* charged, Tick now) {
    FAB_CHECK(!r->is_hedge);
    if (r->retries < fleet->config_.max_request_retries) {
      ++r->retries;
      ++fleet->tally_.request_retries;
      r->cancelled = false;
      r->hedged = false;
      r->hedge_peer = nullptr;
      r->is_probe = false;
      r->in_flight = false;
      r->queued_on = -1;
      r->device = -1;
      PushArrivalAt(r, now + fleet->config_.retry_backoff);
      return;
    }
    r->outcome = FleetRequest::Outcome::kFailed;
    r->in_flight = false;
    r->queued_on = -1;
    r->complete = now;  // a failure is the response the client observes
    r->device = charged->index;  // the shard the failure is charged to
    charged->stats.failures += 1;
    ClientDone(r, now);
    Retire(r);
  }

  // First-wins cancellation of the losing copy: removed from its admission
  // queue when still waiting, flagged when already in a device batch (its
  // completion is then ignored).
  void Cancel(FleetRequest* c, Tick now) {
    if (c == nullptr || c->cancelled || c->outcome != FleetRequest::Outcome::kPending) {
      return;
    }
    c->cancelled = true;
    ++fleet->tally_.hedges_cancelled;
    if (c->queued_on >= 0) {
      ShardByIndex(c->queued_on)->queue.Remove(c, now);
      c->queued_on = -1;
    }
  }

  // Hedge timer fired: if the request is still waiting in an admission queue,
  // issue a duplicate on a different shard.
  void OnHedge(FleetRequest* r, Tick now) {
    if (r->cancelled || r->outcome != FleetRequest::Outcome::kPending || r->hedged ||
        r->queued_on < 0) {
      return;
    }
    const std::vector<int> outstanding = Outstanding();
    const std::vector<ShardHealthView> views = HealthViews(now);
    RouteState state;
    state.outstanding = &outstanding;
    state.health = &views;
    FleetRequest h;
    h.id = r->id;
    h.client_id = r->client_id;
    h.workload_idx = r->workload_idx;
    h.priority = r->priority;
    h.arrival = r->arrival;
    h.is_hedge = true;
    pool->push_back(h);
    FleetRequest* dup = &pool->back();
    Shard* admitted = nullptr;
    for (int attempt = 0; attempt < fleet->config_.num_devices && admitted == nullptr;
         ++attempt) {
      const int d = router->Route(*dup, state, attempt);
      if (d == r->queued_on) {
        continue;  // duplicating onto the same queue hedges nothing
      }
      Shard* s = ShardByIndex(d);
      if (!CanAdmit(s, views[static_cast<std::size_t>(d)])) {
        continue;
      }
      const bool probe = HealthAware() && views[static_cast<std::size_t>(d)].probing;
      if (AdmitTo(s, dup, probe, now)) {
        admitted = s;
      }
    }
    if (admitted == nullptr) {
      dup->cancelled = true;  // nowhere to duplicate; the primary rides alone
      return;
    }
    r->hedged = true;
    r->hedge_peer = dup;
    dup->hedge_peer = r;
    ++fleet->tally_.hedges_issued;
    if (!admitted->busy) {
      StartBatch(admitted, now);
    }
  }

  void OnFault(const FleetFaultEvent& e, Tick now) {
    Shard* s = ShardByIndex(e.shard);
    if (s->dead) {
      return;  // nothing left to break
    }
    switch (e.kind) {
      case FleetFaultEvent::Kind::kStall:
        if (s->down) {
          return;
        }
        ++fleet->tally_.events_applied;
        s->stall_until = std::max(s->stall_until, now + e.duration);
        s->stall_factor = e.stall_factor;
        break;
      case FleetFaultEvent::Kind::kDegrade: {
        if (s->down) {
          return;
        }
        ++fleet->tally_.events_applied;
        const NandConfig& nand = fleet->config_.device.nand;
        const int ch = ((e.kill_channel % nand.channels) + nand.channels) % nand.channels;
        if (e.kill_whole_channel) {
          s->dev->backbone().faults().KillChannel(ch);
        } else {
          const int pkg = ((e.kill_package % nand.packages_per_channel) +
                           nand.packages_per_channel) %
                          nand.packages_per_channel;
          s->dev->backbone().faults().KillDie(ch, pkg);
        }
        break;
      }
      case FleetFaultEvent::Kind::kCrash:
        ++fleet->tally_.events_applied;
        CrashShard(s, now, /*permanent=*/false, e.duration);
        break;
      case FleetFaultEvent::Kind::kDeath:
        ++fleet->tally_.events_applied;
        CrashShard(s, now, /*permanent=*/true, 0);
        break;
    }
  }

  void CrashShard(Shard* s, Tick now, bool permanent, Tick downtime) {
    if (s->down) {
      if (permanent && !s->dead) {
        s->dead = true;  // the pending recovery event will find it dead
        ++fleet->tally_.deaths;
      }
      return;
    }
    ++fleet->tally_.crashes;
    s->stats.crashes += 1;
    if (permanent) {
      ++fleet->tally_.deaths;
    }
    s->down = true;
    s->dead = permanent;
    s->down_since = now;
    s->breaker.ForceOpen(now);
    // The batch in flight tears: its pending batch-done event goes stale and
    // its requests are lost at this tick (the device's flash may hold their
    // completed writes, but no response ever leaves the shard).
    ++s->batch_gen;
    const std::vector<FleetRequest*> torn = std::move(s->current_batch);
    s->current_batch.clear();
    s->busy = false;
    if (!s->dev->crashed()) {
      s->dev->CrashAt(std::max(s->sim->Now(), now));
      s->sim->Run();
    }
    for (FleetRequest* r : torn) {
      r->in_flight = false;
      r->is_probe = false;  // the force-open breaker takes no probe votes
      s->stats.torn += 1;
      ++fleet->tally_.torn_in_flight;
      if (r->cancelled) {
        continue;
      }
      OnCopyFailed(s, r, now);
    }
    // Queued requests fail over: drained and re-routed across the survivors.
    std::vector<FleetRequest*> drained;
    while (!s->queue.empty()) {
      drained.push_back(s->queue.Dequeue(now));
    }
    for (FleetRequest* r : drained) {
      r->queued_on = -1;
      r->is_probe = false;  // its probe slot died with the breaker
      if (r->cancelled) {
        continue;
      }
      ++fleet->tally_.failover_reroutes;
      PushArrivalAt(r, now);
    }
    if (!permanent) {
      PushRecover(s, now + std::max<Tick>(downtime, 1));
    }
  }

  void OnRecover(Shard* s, Tick now) {
    if (s->dead || !s->down) {
      return;  // superseded by a permanent death
    }
    s->down = false;
    s->stats.down_ns += now - s->down_since;
    s->stats.recoveries += 1;
    ++fleet->tally_.recoveries;
    if (fleet->config_.faults.recovery == FleetFaultConfig::Recovery::kSnapshot &&
        !s->checkpoint.empty()) {
      RestoreShardCheckpoint(s);
    } else {
      const Flashvisor::RecoveryReport rr = s->dev->RecoverFromFlash();
      s->stats.recovered_lost_groups += rr.lost_groups;
      s->stats.recovered_torn_groups += rr.torn_groups;
      if (rr.done > s->sim->Now()) {
        // The recovery scan occupies the device; batches queue behind it.
        s->sim->ScheduleAt(rr.done, []() {});
        s->sim->Run();
      }
      // The rebuilt FTL may have dropped torn or lost groups; re-install
      // datasets on demand instead of trusting the old extents.
      for (auto& slots : s->cache) {
        slots.clear();
      }
    }
    // Rejoin through probe traffic, not a full load slice.
    s->breaker.ForceHalfOpen(now);
  }

  // Snapshot-mode recovery: rebuild the shard from its last periodic device
  // checkpoint, install cache included.
  void RestoreShardCheckpoint(Shard* s) {
    SnapshotFile snap;
    std::string err;
    FAB_CHECK(SnapshotFile::Parse(s->checkpoint, &snap, &err)) << "shard checkpoint: " << err;
    s->sim = std::make_unique<Simulator>();
    s->dev = std::make_unique<FlashAbacus>(s->sim.get(), fleet->ShardDeviceConfig(s->index));
    FAB_CHECK(s->dev->Resume(snap, &err)) << "shard checkpoint: " << err;
    StateReader r(s->checkpoint_cache);
    fleet->ReadInstallCache(s, r);
    FAB_CHECK(r.ok() && r.AtEnd()) << "shard checkpoint cache: " << r.error();
  }

  void MaybeCheckpoint(Shard* s) {
    const FleetFaultConfig& fc = fleet->config_.faults;
    if (router == nullptr || !fc.Any() ||
        fc.recovery != FleetFaultConfig::Recovery::kSnapshot) {
      return;
    }
    if (++s->batches_since_checkpoint < fc.checkpoint_every_batches) {
      return;
    }
    s->batches_since_checkpoint = 0;
    s->checkpoint = s->dev->BuildSnapshot().Serialize();
    StateWriter w;
    FleetSim::WriteInstallCache(*s, w);
    s->checkpoint_cache = w.TakeBuffer();
  }

  void ClientDone(FleetRequest* r, Tick now) {
    if (gen == nullptr) {
      return;
    }
    FleetRequest next;
    if (gen->NextForClient(r->client_id, now, &next)) {
      pool->push_back(next);
      PushArrival(&pool->back());
    }
  }

  void StartBatch(Shard* s, Tick now) {
    FAB_CHECK(!s->busy);
    FAB_CHECK(!s->queue.empty());
    FAB_CHECK(!s->down && !s->dead) << "batch started on a crashed shard";
    s->busy = true;
    while (!s->queue.empty() &&
           s->current_batch.size() < static_cast<std::size_t>(fleet->config_.max_batch)) {
      FleetRequest* r = s->queue.Dequeue(now);
      r->dispatch = now;
      r->queued_on = -1;
      r->in_flight = true;
      s->current_batch.push_back(r);
    }
    PushBatchDone(s, RunBatch(s, now));
  }

  // Executes the shard's current batch on its device, eagerly running the
  // device simulator to completion, and returns the batch-done tick. Eager
  // execution is sound because shards only interact through routing, which
  // reads fleet-level bookkeeping processed in global event order. Outcomes
  // are assigned at the batch-done event, not here, so a crash landing inside
  // the service window can still tear the batch.
  Tick RunBatch(Shard* s, Tick now) {
    if (fleet->config_.synthetic_service) {
      return RunBatchSynthetic(s, now);
    }
    if (s->sim->Now() < now) {
      // Align the shard clock with fleet time (the previous batch's write
      // drain may have advanced it, an idle gap may lag it).
      s->sim->ScheduleAt(now, []() {});
      s->sim->Run();
    }
    std::vector<AppInstance*> insts;
    insts.reserve(s->current_batch.size());
    bool fresh_install = false;
    for (FleetRequest* r : s->current_batch) {
      insts.push_back(Acquire(s, r, &fresh_install));
    }
    if (fresh_install) {
      s->sim->Run();  // drain the dataset installs before the offload
    }
    const std::uint64_t io_failures_before = s->dev->io_failures();
    bool completed = false;
    Tick end = 0;
    RunReport rep;
    s->dev->Run(insts, fleet->config_.scheduler, [&](RunReport rr) {
      rep = std::move(rr);
      end = s->sim->Now();
      completed = true;
    });
    s->sim->Run();
    FAB_CHECK(completed) << "fleet batch did not complete on shard " << s->index;
    const bool failed = FaultsActive() && s->dev->io_failures() > io_failures_before;
    // Brownout: a batch dispatched inside a stall window runs slower by the
    // stall factor; the device clock advances to the inflated end so later
    // batches queue behind it.
    const bool stalled = s->stall_until > now;
    if (stalled) {
      const Tick inflated =
          now + static_cast<Tick>(static_cast<double>(end - now) * s->stall_factor);
      if (inflated > s->sim->Now()) {
        s->sim->ScheduleAt(inflated, []() {});
        s->sim->Run();
      }
      end = inflated;
    }
    for (std::size_t i = 0; i < insts.size(); ++i) {
      FleetRequest* r = s->current_batch[i];
      r->complete = stalled ? end : insts[i]->complete_time;
      Shard::CachedInstance& slot = SlotOf(s, r, insts[i]);
      if (!failed && fleet->config_.verify_outputs && s->verified) {
        if (!slot.reference) {
          slot.reference =
              fleet->traffic_->mix()[static_cast<std::size_t>(r->workload_idx)]->Reference(
                  *insts[i]);
        }
        s->verified = Workload::Matches(*insts[i], *slot.reference);
      }
      slot.in_use = false;
    }
    s->last_batch_failed = failed;
    s->last_batch_ms = TicksToMs(end - now);
    s->stats.batches += 1;
    s->stats.busy_ns += end - now;
    s->stats.batch_ms.Record(TicksToMs(end - now));
    s->stats.energy_j += rep.EnergySummary().total_j;
    MaybeCheckpoint(s);
    return end;
  }

  // Analytic service model (FleetConfig::synthetic_service): each request
  // costs its workload's modelled input bytes at kSyntheticNsPerMb, scaled by
  // a deterministic per-request jitter in [0.9, 1.1) drawn from a hash of
  // (seed, id, shard); the batch serves the requests back to back. No device
  // simulation runs, so a batch costs O(requests) arithmetic and the fleet
  // sustains ~10^6 requests per wall-second — the scale-out bench regime.
  Tick RunBatchSynthetic(Shard* s, Tick now) {
    Tick span = 0;
    for (FleetRequest* r : s->current_batch) {
      const std::size_t w = static_cast<std::size_t>(r->workload_idx);
      if (s->synthetic_installed[w] == 0) {
        s->synthetic_installed[w] = 1;
        s->stats.installs += 1;
      } else {
        s->stats.install_hits += 1;
      }
      const KernelSpec& spec = fleet->traffic_->mix()[w]->spec();
      const double mb = spec.model_input_mb * fleet->config_.device.model_scale;
      const std::uint64_t h =
          Mix64(fleet->config_.traffic.seed ^
                Mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(r->id)) * 2654435761ULL +
                      static_cast<std::uint64_t>(s->index) + 1));
      const double jitter =
          0.9 + 0.2 * static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      span += static_cast<Tick>(mb * kSyntheticNsPerMb * jitter) + 1;
    }
    const Tick end = now + span;
    for (FleetRequest* r : s->current_batch) {
      r->complete = end;
    }
    s->last_batch_failed = false;
    s->last_batch_ms = TicksToMs(span);
    s->stats.batches += 1;
    s->stats.busy_ns += span;
    s->stats.batch_ms.Record(TicksToMs(span));
    return end;
  }

  AppInstance* Acquire(Shard* s, FleetRequest* r, bool* fresh_install) {
    const Workload* wl = fleet->traffic_->mix()[static_cast<std::size_t>(r->workload_idx)];
    auto& cache = s->cache[static_cast<std::size_t>(r->workload_idx)];
    for (Shard::CachedInstance& slot : cache) {
      if (slot.in_use) {
        continue;
      }
      // Dataset already flash-resident: reset the buffers to what the slot's
      // original seed prepared (matching the flash contents) and reset the
      // execution timeline.
      slot.in_use = true;
      AppInstance* inst = slot.inst.get();
      wl->Reset(*inst, slot.seed);
      inst->done = false;
      inst->submit_time = 0;
      inst->load_done_time = 0;
      inst->compute_done_time = 0;
      inst->complete_time = 0;
      s->stats.install_hits += 1;
      return inst;
    }
    const std::uint64_t seed =
        InstanceSeed(fleet->config_.traffic.seed, s->index, r->workload_idx, cache.size());
    auto inst = std::make_unique<AppInstance>(r->workload_idx, static_cast<int>(cache.size()),
                                              &wl->spec(), fleet->config_.device.model_scale);
    Rng rng(seed);
    wl->Prepare(*inst, rng);
    s->dev->InstallData(inst.get(), [](Tick) {});
    *fresh_install = true;
    s->stats.installs += 1;
    cache.push_back({std::move(inst), seed, true, std::nullopt});
    return cache.back().inst.get();
  }

  static Shard::CachedInstance& SlotOf(Shard* s, const FleetRequest* r,
                                       const AppInstance* inst) {
    auto& slots = s->cache[static_cast<std::size_t>(r->workload_idx)];
    auto it = std::find_if(slots.begin(), slots.end(), [inst](const Shard::CachedInstance& c) {
      return c.inst.get() == inst;
    });
    FAB_CHECK(it != slots.end()) << "served instance not in shard cache";
    return *it;
  }
};

FleetSim::FleetSim(const FleetConfig& config)
    : config_(config), router_(config.policy, std::max(config.num_devices, 1)) {
  const std::string problem = config_.Validate();
  FAB_CHECK(problem.empty()) << "bad FleetConfig: " << problem;
  traffic_ = std::make_unique<TrafficGenerator>(config_.traffic);
  BuildShards();
}

FleetSim::~FleetSim() = default;

FlashAbacusConfig FleetSim::ShardDeviceConfig(int shard) const {
  FlashAbacusConfig dev_cfg = config_.device;
  // Decorrelate the shards' random fault schedules; a common seed would
  // make "independent" devices fail in lockstep.
  dev_cfg.nand.fault.seed ^= Mix64(static_cast<std::uint64_t>(shard) + 0x51aDULL);
  return dev_cfg;
}

void FleetSim::BuildShards() {
  for (int d = 0; d < config_.num_devices; ++d) {
    auto shard = std::make_unique<Shard>(config_.queue_depth, config_.health);
    shard->index = d;
    if (!config_.synthetic_service) {
      // Synthetic shards have no device simulation at all — constructing 64+
      // full devices would dominate a scale-out run's footprint and startup.
      shard->sim = std::make_unique<Simulator>();
      shard->dev = std::make_unique<FlashAbacus>(shard->sim.get(), ShardDeviceConfig(d));
    }
    shard->cache.resize(traffic_->mix().size());
    shard->synthetic_installed.assign(traffic_->mix().size(), 0);
    shards_.push_back(std::move(shard));
  }
}

void FleetSim::WriteInstallCache(const Shard& shard, StateWriter& w) {
  // Install-cache directory: which datasets are flash-resident on this
  // shard, their preparation seeds and the extents they map. Enough to
  // rebuild the cached AppInstances without re-installing anything.
  w.U64(shard.cache.size());
  for (const auto& slots : shard.cache) {
    w.U64(slots.size());
    for (const Shard::CachedInstance& slot : slots) {
      FAB_CHECK(!slot.in_use) << "cached instance in use at snapshot";
      w.U64(slot.seed);
      w.U64(slot.inst->sections().size());
      for (const DataSection& s : slot.inst->sections()) {
        w.U64(s.flash_addr);
        w.U64(s.model_bytes);
      }
    }
  }
}

void FleetSim::ReadInstallCache(Shard* shard, StateReader& c) const {
  const std::uint64_t workloads = c.U64();
  if (c.ok() && workloads != shard->cache.size()) {
    c.Fail("install cache workload count mismatch");
    return;
  }
  for (std::size_t wl_idx = 0; wl_idx < shard->cache.size() && c.ok(); ++wl_idx) {
    auto& slots = shard->cache[wl_idx];
    slots.clear();
    const Workload* wl = traffic_->mix()[wl_idx];
    const std::uint64_t n_slots = c.U64();
    for (std::uint64_t slot_i = 0; slot_i < n_slots && c.ok(); ++slot_i) {
      const std::uint64_t seed = c.U64();
      auto inst = std::make_unique<AppInstance>(static_cast<int>(wl_idx),
                                                static_cast<int>(slot_i), &wl->spec(),
                                                config_.device.model_scale);
      Rng rng(seed);
      wl->Prepare(*inst, rng);
      const std::uint64_t n_secs = c.U64();
      if (n_secs != wl->spec().sections.size()) {
        c.Fail("cached instance section count mismatch");
        break;
      }
      inst->sections().clear();
      for (std::uint64_t si = 0; si < n_secs; ++si) {
        DataSection s;
        s.spec = &wl->spec().sections[si];
        s.flash_addr = c.U64();
        s.model_bytes = c.U64();
        inst->sections().push_back(s);
      }
      slots.push_back({std::move(inst), seed, false, std::nullopt});
    }
  }
}

SnapshotBuilder FleetSim::BuildSnapshot() const {
  FAB_CHECK(!config_.synthetic_service)
      << "synthetic fleets have no device state to snapshot";
  SnapshotBuilder b("fleet");
  b.SetMeta("policy", PlacementPolicyName(config_.policy));
  b.SetMeta("traffic_model", TrafficModelName(config_.traffic.model));
  b.SetMeta("scheduler", SchedulerKindName(config_.scheduler));
  b.SetMeta("num_devices", static_cast<double>(config_.num_devices));
  {
    // v3: adds the sketch-geometry fingerprint so a snapshot written with a
    // different LogHistogram/BoundedTimeSeries layout is rejected up front
    // instead of mis-parsing any embedded sketch state.
    StateWriter& w = b.AddSection("fleet", 3);
    w.U32(static_cast<std::uint32_t>(config_.num_devices));
    w.U64(traffic_->mix().size());
    w.I32(LogHistogram::kMinExp2);
    w.I32(LogHistogram::kMaxExp2);
    w.I32(LogHistogram::kSubBuckets);
    w.U32(static_cast<std::uint32_t>(BoundedTimeSeries::kDefaultMaxBins));
    router_.SaveState(w);
    traffic_->SaveState(w);
  }
  for (const auto& shard : shards_) {
    FAB_CHECK(!shard->busy && shard->queue.empty())
        << "fleet shard " << shard->index << " still serving at snapshot";
    FAB_CHECK(!shard->dev->crashed())
        << "fleet shard " << shard->index << " is crashed; recover before snapshotting";
    const std::string prefix = "shard/" + std::to_string(shard->index);
    b.AddBlobSection(prefix + "/device", 1, shard->dev->BuildSnapshot().Serialize());
    StateWriter& w = b.AddSection(prefix + "/cache", 1);
    WriteInstallCache(*shard, w);
    StateWriter& h = b.AddSection(prefix + "/health", 1);
    shard->health.SaveState(h);
    shard->breaker.SaveState(h);
  }
  return b;
}

bool FleetSim::Snapshot(const std::string& path, std::string* error) const {
  return BuildSnapshot().WriteFile(path, error);
}

bool FleetSim::Resume(const SnapshotFile& snap, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  FAB_CHECK(!ran_) << "resume into a fresh FleetSim";
  if (config_.synthetic_service) {
    return fail("synthetic fleets have no device state; resume needs real devices");
  }
  if (snap.kind() != "fleet") {
    return fail("snapshot kind '" + snap.kind() + "' is not a fleet snapshot");
  }
  {
    StateReader r = snap.Open("fleet", 3);
    if (!r.ok()) {
      return fail(r.error());
    }
    const std::uint32_t devices = r.U32();
    const std::uint64_t mix = r.U64();
    const std::int32_t min_exp2 = r.I32();
    const std::int32_t max_exp2 = r.I32();
    const std::int32_t sub_buckets = r.I32();
    const std::uint32_t ts_bins = r.U32();
    if (!r.ok()) {
      return fail("corrupt fleet section: " + r.error());
    }
    if (devices != static_cast<std::uint32_t>(config_.num_devices)) {
      return fail("snapshot has " + std::to_string(devices) + " devices, this fleet has " +
                  std::to_string(config_.num_devices));
    }
    if (mix != traffic_->mix().size()) {
      return fail("snapshot workload mix size mismatch");
    }
    if (min_exp2 != LogHistogram::kMinExp2 || max_exp2 != LogHistogram::kMaxExp2 ||
        sub_buckets != LogHistogram::kSubBuckets ||
        ts_bins != static_cast<std::uint32_t>(BoundedTimeSeries::kDefaultMaxBins)) {
      return fail("snapshot sketch geometry mismatch (histogram/time-series layout changed)");
    }
    router_.LoadState(r);
    traffic_->LoadState(r);
    if (!r.ok()) {
      return fail("corrupt fleet section: " + r.error());
    }
    if (!r.AtEnd()) {
      return fail("fleet section has trailing bytes");
    }
  }
  resume_base_ = 0;
  for (auto& shard : shards_) {
    const std::string prefix = "shard/" + std::to_string(shard->index);
    const SnapshotFile::Section* dev = snap.Find(prefix + "/device");
    if (dev == nullptr) {
      return fail("missing section " + prefix + "/device");
    }
    SnapshotFile nested;
    std::string err;
    if (!SnapshotFile::Parse(dev->payload, &nested, &err)) {
      return fail(prefix + "/device: " + err);
    }
    if (!shard->dev->Resume(nested, &err)) {
      return fail(prefix + "/device: " + err);
    }
    resume_base_ = std::max(resume_base_, shard->sim->Now());

    StateReader c = snap.Open(prefix + "/cache", 1);
    if (!c.ok()) {
      return fail(c.error());
    }
    ReadInstallCache(shard.get(), c);
    if (!c.ok()) {
      return fail(prefix + "/cache: " + c.error());
    }
    if (!c.AtEnd()) {
      return fail(prefix + "/cache has trailing bytes");
    }

    StateReader h = snap.Open(prefix + "/health", 1);
    if (!h.ok()) {
      return fail(h.error());
    }
    shard->health.LoadState(h);
    shard->breaker.LoadState(h);
    if (!h.ok()) {
      return fail(prefix + "/health: " + h.error());
    }
    if (!h.AtEnd()) {
      return fail(prefix + "/health has trailing bytes");
    }
  }
  return true;
}

bool FleetSim::Resume(const std::string& path, std::string* error) {
  SnapshotFile snap;
  std::string err;
  if (!SnapshotFile::Load(path, &snap, &err)) {
    if (error != nullptr) {
      *error = err;
    }
    return false;
  }
  return Resume(snap, error);
}

FleetReport FleetSim::Run() {
  FAB_CHECK(!ran_) << "FleetSim is one-shot; build a new one per run";
  ran_ = true;
  // The lazily-built registry must exist before any worker threads read it.
  WorkloadRegistry::Get();

  agg_.served_by_workload.assign(traffic_->mix().size(), 0);
  agg_.client_latency_ms.resize(static_cast<std::size_t>(config_.traffic.num_clients));

  std::deque<FleetRequest> pool;
  const bool partitioned = config_.execution == FleetConfig::Execution::kPartitioned ||
                           (config_.execution == FleetConfig::Execution::kAuto &&
                            config_.CanPartition());
  if (partitioned) {
    FAB_CHECK(config_.CanPartition());
    // Oblivious routing: place the whole schedule up front, then serve every
    // shard's slice independently on the sweep pool. Aggregation happens
    // post-hoc in request-id order; the streaming sketches are order-
    // invariant, so the merged report is byte-identical to lockstep
    // execution at any thread count.
    for (FleetRequest& r : traffic_->InitialArrivals()) {
      // A resumed fleet's shard clocks sit at the snapshot point; arrivals
      // shift past it so the new serving window starts where the devices are.
      r.arrival += resume_base_;
      pool.push_back(r);
    }
    const std::vector<int> zeros(static_cast<std::size_t>(config_.num_devices), 0);
    std::vector<std::vector<FleetRequest*>> slices(
        static_cast<std::size_t>(config_.num_devices));
    for (FleetRequest& r : pool) {
      r.device = router_.Route(r, zeros, 0);
      slices[static_cast<std::size_t>(r.device)].push_back(&r);
    }
    SweepRunner runner(config_.sweep_threads);
    runner.RunIndexed(shards_.size(), [&](std::size_t d) {
      ServeLoop loop;
      loop.fleet = this;
      loop.shards = {shards_[d].get()};
      for (FleetRequest* r : slices[d]) {
        loop.PushArrival(r);
      }
      loop.Run();
    });
    // Pool insertion order is id order: retire the whole schedule in the
    // canonical sequence (none of these requests can be hedge duplicates).
    for (const FleetRequest& r : pool) {
      RetireRequest(r);
    }
  } else {
    ServeLoop loop;
    loop.fleet = this;
    for (auto& s : shards_) {
      loop.shards.push_back(s.get());
    }
    loop.router = &router_;
    loop.gen = traffic_.get();
    loop.pool = &pool;
    loop.retire_inline = true;
    // Fault events go in first so a fault and an arrival at the same tick
    // resolve fault-first: the arrival routes around the freshly-down shard.
    loop.fault_events = config_.faults.Materialize(config_.num_devices);
    for (std::size_t i = 0; i < loop.fault_events.size(); ++i) {
      loop.PushFault(static_cast<int>(i), loop.fault_events[i].at);
    }
    if (config_.traffic.model == TrafficConfig::Model::kOpenLoop) {
      // Stream the open-loop schedule one arrival at a time instead of
      // materializing total_requests up front, and — unless hedge timers may
      // hold pointers past retirement — recycle retired pool slots. Peak
      // memory becomes O(in-flight + queued), independent of request count.
      loop.stream = traffic_.get();
      loop.recycle = !config_.hedge_requests;
      loop.stream_seq_lo = loop.seq;  // == number of fault events pushed
      loop.stream_seq_hi =
          loop.stream_seq_lo + static_cast<std::uint64_t>(traffic_->total_requests());
      loop.seq = loop.stream_seq_hi;  // dynamic events sort after every arrival
      loop.PushNextStreamArrival();
    } else {
      for (FleetRequest& r : traffic_->InitialArrivals()) {
        r.arrival += resume_base_;
        pool.push_back(r);
      }
      for (std::size_t i = 0; i < pool.size(); ++i) {
        loop.PushArrival(&pool[i]);
      }
    }
    loop.Run();
  }
  return Finalize(partitioned ? "partitioned" : "lockstep");
}

void FleetSim::RetireRequest(const FleetRequest& r) {
  FAB_CHECK(!r.is_hedge) << "hedge duplicates are not client load";
  ++agg_.offered;
  const std::size_t pri = static_cast<std::size_t>(r.priority);
  ++agg_.offered_by_priority[pri];
  agg_.route_retries += static_cast<std::uint64_t>(r.route_retries);
  if (r.outcome == FleetRequest::Outcome::kShed) {
    ++agg_.shed;
    ++agg_.shed_by_priority[pri];
    agg_.makespan = std::max(agg_.makespan, r.arrival);
    return;
  }
  if (r.outcome == FleetRequest::Outcome::kFailed) {
    ++agg_.failed;
    ++agg_.failed_by_priority[pri];
    agg_.makespan = std::max(agg_.makespan, std::max(r.arrival, r.complete));
    return;
  }
  FAB_CHECK(r.outcome == FleetRequest::Outcome::kServed)
      << "request " << r.id << " neither served, failed nor shed";
  ++agg_.served;
  ++agg_.served_by_priority[pri];
  ++agg_.served_by_workload[static_cast<std::size_t>(r.workload_idx)];
  agg_.makespan = std::max(agg_.makespan, r.complete);
  const double lat_ms = TicksToMs(r.complete - r.arrival);
  if (lat_ms > config_.slo_ms) {
    ++agg_.slo_violations;
  }
  agg_.latency_ms.Record(lat_ms);
  agg_.priority_latency_ms[pri].Record(lat_ms);
  agg_.client_latency_ms[static_cast<std::size_t>(r.client_id)].Record(lat_ms);
  shards_[static_cast<std::size_t>(r.device)]->stats.latency_ms.Record(lat_ms);
}

FleetReport FleetSim::Finalize(const std::string& execution) {
  FleetReport rep;
  rep.policy = PlacementPolicyName(config_.policy);
  rep.traffic_model = TrafficModelName(config_.traffic.model);
  rep.scheduler = SchedulerKindName(config_.scheduler);
  rep.execution = execution;
  rep.num_devices = config_.num_devices;

  rep.offered = agg_.offered;
  rep.served = agg_.served;
  rep.shed = agg_.shed;
  rep.failed = agg_.failed;
  rep.route_retries = agg_.route_retries;
  rep.slo_violations = agg_.slo_violations;
  rep.makespan = agg_.makespan;
  for (int p = 0; p < kNumPriorities; ++p) {
    rep.offered_by_priority[p] = agg_.offered_by_priority[p];
    rep.served_by_priority[p] = agg_.served_by_priority[p];
    rep.shed_by_priority[p] = agg_.shed_by_priority[p];
    rep.failed_by_priority[p] = agg_.failed_by_priority[p];
    rep.priority_latency_ms[p] = agg_.priority_latency_ms[p];
  }
  rep.latency_ms = agg_.latency_ms;
  rep.client_latency_ms = std::move(agg_.client_latency_ms);

  // Served bytes reduce over per-workload served counts: an integer reduction
  // in mix order, exact however the requests were retired.
  double served_bytes = 0.0;
  for (std::size_t wi = 0; wi < agg_.served_by_workload.size(); ++wi) {
    const KernelSpec& spec = traffic_->mix()[wi]->spec();
    served_bytes += static_cast<double>(agg_.served_by_workload[wi]) * spec.model_input_mb *
                    1024.0 * 1024.0 * config_.device.model_scale;
  }
  // A resumed fleet reports its serving window only: the clock floor
  // inherited from the snapshot is not time this run spent serving.
  const Tick horizon = rep.makespan;  // absolute last-activity tick
  rep.makespan = rep.makespan > resume_base_ ? rep.makespan - resume_base_ : 0;
  rep.availability = rep.offered > 0
                         ? static_cast<double>(rep.served) / static_cast<double>(rep.offered)
                         : 1.0;

  const double seconds = TicksToSeconds(rep.makespan);
  rep.throughput_rps = seconds > 0.0 ? static_cast<double>(rep.served) / seconds : 0.0;
  rep.served_mb_s = seconds > 0.0 ? served_bytes / (1024.0 * 1024.0) / seconds : 0.0;

  rep.fault_events_applied = tally_.events_applied;
  rep.crashes = tally_.crashes;
  rep.deaths = tally_.deaths;
  rep.recoveries = tally_.recoveries;
  rep.torn_in_flight = tally_.torn_in_flight;
  rep.failover_reroutes = tally_.failover_reroutes;
  rep.request_retries = tally_.request_retries;
  rep.hedges_issued = tally_.hedges_issued;
  rep.hedges_won = tally_.hedges_won;
  rep.hedges_cancelled = tally_.hedges_cancelled;

  for (auto& shard : shards_) {
    shard->stats.utilization =
        rep.makespan > 0
            ? static_cast<double>(std::min(shard->stats.busy_ns, rep.makespan)) /
                  static_cast<double>(rep.makespan)
            : 0.0;
    shard->stats.peak_queue_depth = shard->queue.peak_depth();
    shard->stats.queue_depth = shard->queue.depth_series();
    shard->stats.events_executed =
        shard->sim != nullptr ? shard->sim->events_executed() : 0;
    shard->stats.dead = shard->dead;
    if ((shard->down || shard->dead) && horizon > shard->down_since) {
      // Still out at the end of the window: the outage runs to the horizon.
      shard->stats.down_ns += horizon - shard->down_since;
    }
    shard->stats.breaker_opens = shard->breaker.opens();
    shard->stats.breaker_closes = shard->breaker.closes();
    shard->stats.breaker_state = BreakerStateName(shard->breaker.state());
    shard->stats.health_latency_ewma_ms = shard->health.latency_ewma_ms();
    shard->stats.health_error_ewma = shard->health.error_ewma();
    rep.timeouts += shard->timeouts;
    rep.evictions += shard->evictions;
    rep.verified = rep.verified && shard->verified;
    rep.devices.push_back(shard->stats);
  }

  // Everything above also flows through the observability layer: one
  // fleet/* metrics hierarchy, snapshotted at the fleet makespan.
  MetricsRegistry reg;
  std::deque<Counter> counters;
  auto counter = [&](const std::string& name, std::uint64_t v) {
    counters.emplace_back();
    counters.back().Add(v);
    reg.RegisterCounter(name, &counters.back());
  };
  counter("fleet/offered", rep.offered);
  counter("fleet/served", rep.served);
  counter("fleet/shed", rep.shed);
  counter("fleet/failed", rep.failed);
  counter("fleet/route_retries", rep.route_retries);
  counter("fleet/slo_violations", rep.slo_violations);
  counter("fleet/fault/events_applied", rep.fault_events_applied);
  counter("fleet/fault/crashes", rep.crashes);
  counter("fleet/fault/deaths", rep.deaths);
  counter("fleet/fault/recoveries", rep.recoveries);
  counter("fleet/fault/torn_in_flight", rep.torn_in_flight);
  counter("fleet/fault/failover_reroutes", rep.failover_reroutes);
  counter("fleet/retry/requests", rep.request_retries);
  counter("fleet/retry/timeouts", rep.timeouts);
  counter("fleet/priority/evictions", rep.evictions);
  counter("fleet/hedge/issued", rep.hedges_issued);
  counter("fleet/hedge/won", rep.hedges_won);
  counter("fleet/hedge/cancelled", rep.hedges_cancelled);
  for (int p = 0; p < kNumPriorities; ++p) {
    const std::string prefix =
        std::string("fleet/priority/") + RequestPriorityName(static_cast<RequestPriority>(p)) +
        "/";
    counter(prefix + "offered", rep.offered_by_priority[p]);
    counter(prefix + "served", rep.served_by_priority[p]);
    counter(prefix + "shed", rep.shed_by_priority[p]);
    counter(prefix + "failed", rep.failed_by_priority[p]);
  }
  reg.RegisterGauge("fleet/throughput_rps", [&rep](Tick) { return rep.throughput_rps; });
  reg.RegisterGauge("fleet/availability", [&rep](Tick) { return rep.availability; });
  reg.RegisterHistogram("fleet/latency_ms", &rep.latency_ms);
  for (int p = 0; p < kNumPriorities; ++p) {
    reg.RegisterHistogram(std::string("fleet/priority/") +
                              RequestPriorityName(static_cast<RequestPriority>(p)) +
                              "/latency_ms",
                          &rep.priority_latency_ms[p]);
  }
  for (std::size_t d = 0; d < rep.devices.size(); ++d) {
    const std::string p = "fleet/device/" + std::to_string(d) + "/";
    const FleetDeviceStats& st = rep.devices[d];
    counter(p + "served", st.served);
    counter(p + "shed", st.shed);
    counter(p + "batches", st.batches);
    counter(p + "installs", st.installs);
    counter(p + "install_hits", st.install_hits);
    counter(p + "peak_queue_depth", st.peak_queue_depth);
    counter(p + "failures", st.failures);
    counter(p + "torn", st.torn);
    counter(p + "crashes", st.crashes);
    counter(p + "recoveries", st.recoveries);
    counter(p + "probes", st.probes);
    counter(p + "breaker_opens", st.breaker_opens);
    counter(p + "breaker_closes", st.breaker_closes);
    reg.RegisterGauge(p + "utilization", [&rep, d](Tick) { return rep.devices[d].utilization; });
    reg.RegisterGauge(p + "health/latency_ewma_ms",
                      [&rep, d](Tick) { return rep.devices[d].health_latency_ewma_ms; });
    reg.RegisterGauge(p + "health/error_ewma",
                      [&rep, d](Tick) { return rep.devices[d].health_error_ewma; });
    reg.RegisterHistogram(p + "latency_ms", &rep.devices[d].latency_ms);
    reg.RegisterHistogram(p + "batch_ms", &rep.devices[d].batch_ms);
  }
  for (std::size_t c = 0; c < rep.client_latency_ms.size(); ++c) {
    reg.RegisterHistogram("fleet/client/" + std::to_string(c) + "/latency_ms",
                          &rep.client_latency_ms[c]);
  }
  rep.metrics = reg.Snapshot(rep.makespan);
  return rep;
}

void FleetReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("schema_version", kJsonSchemaVersion);
  w->Field("policy", policy);
  w->Field("traffic_model", traffic_model);
  w->Field("scheduler", scheduler);
  w->Field("execution", execution);
  w->Field("num_devices", num_devices);
  w->Field("makespan_ms", TicksToMs(makespan));
  w->Field("offered", static_cast<double>(offered));
  w->Field("served", static_cast<double>(served));
  w->Field("shed", static_cast<double>(shed));
  w->Field("failed", static_cast<double>(failed));
  w->Field("route_retries", static_cast<double>(route_retries));
  w->Field("slo_violations", static_cast<double>(slo_violations));
  w->Field("throughput_rps", throughput_rps);
  w->Field("served_mb_s", served_mb_s);
  w->Field("availability", availability);
  w->Field("verified", verified);

  w->Key("faults").BeginObject();
  w->Field("events_applied", static_cast<double>(fault_events_applied))
      .Field("crashes", static_cast<double>(crashes))
      .Field("deaths", static_cast<double>(deaths))
      .Field("recoveries", static_cast<double>(recoveries))
      .Field("torn_in_flight", static_cast<double>(torn_in_flight))
      .Field("failover_reroutes", static_cast<double>(failover_reroutes))
      .Field("request_retries", static_cast<double>(request_retries))
      .Field("timeouts", static_cast<double>(timeouts))
      .Field("evictions", static_cast<double>(evictions))
      .Field("hedges_issued", static_cast<double>(hedges_issued))
      .Field("hedges_won", static_cast<double>(hedges_won))
      .Field("hedges_cancelled", static_cast<double>(hedges_cancelled));
  w->EndObject();

  w->Key("priorities").BeginArray();
  for (int p = 0; p < kNumPriorities; ++p) {
    w->BeginObject()
        .Field("class", RequestPriorityName(static_cast<RequestPriority>(p)))
        .Field("offered", static_cast<double>(offered_by_priority[p]))
        .Field("served", static_cast<double>(served_by_priority[p]))
        .Field("shed", static_cast<double>(shed_by_priority[p]))
        .Field("failed", static_cast<double>(failed_by_priority[p]));
    w->Key("latency_ms");
    WriteHistogramSummary(w, priority_latency_ms[p].Summarize());
    w->EndObject();
  }
  w->EndArray();

  w->Key("latency_ms");
  WriteHistogramSummary(w, latency_ms.Summarize());

  w->Key("clients").BeginArray();
  for (std::size_t c = 0; c < client_latency_ms.size(); ++c) {
    w->BeginObject().Field("client", static_cast<double>(c)).Key("latency_ms");
    WriteHistogramSummary(w, client_latency_ms[c].Summarize());
    w->EndObject();
  }
  w->EndArray();

  w->Key("devices").BeginArray();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const FleetDeviceStats& st = devices[d];
    w->BeginObject()
        .Field("device", static_cast<double>(d))
        .Field("served", static_cast<double>(st.served))
        .Field("shed", static_cast<double>(st.shed))
        .Field("failures", static_cast<double>(st.failures))
        .Field("batches", static_cast<double>(st.batches))
        .Field("installs", static_cast<double>(st.installs))
        .Field("install_hits", static_cast<double>(st.install_hits))
        .Field("busy_ms", TicksToMs(st.busy_ns))
        .Field("utilization", st.utilization)
        .Field("energy_j", st.energy_j)
        .Field("events_executed", static_cast<double>(st.events_executed))
        .Field("peak_queue_depth", static_cast<double>(st.peak_queue_depth))
        .Field("torn", static_cast<double>(st.torn))
        .Field("crashes", static_cast<double>(st.crashes))
        .Field("recoveries", static_cast<double>(st.recoveries))
        .Field("dead", st.dead)
        .Field("down_ms", TicksToMs(st.down_ns))
        .Field("recovered_lost_groups", static_cast<double>(st.recovered_lost_groups))
        .Field("recovered_torn_groups", static_cast<double>(st.recovered_torn_groups))
        .Field("breaker_opens", static_cast<double>(st.breaker_opens))
        .Field("breaker_closes", static_cast<double>(st.breaker_closes))
        .Field("probes", static_cast<double>(st.probes))
        .Field("breaker_state", st.breaker_state)
        .Field("health_latency_ewma_ms", st.health_latency_ewma_ms)
        .Field("health_error_ewma", st.health_error_ewma);
    w->Key("latency_ms");
    WriteHistogramSummary(w, st.latency_ms.Summarize());
    w->Key("batch_ms");
    WriteHistogramSummary(w, st.batch_ms.Summarize());
    w->Key("queue_depth").BeginObject();
    w->Field("samples", static_cast<double>(st.queue_depth.samples()));
    w->Key("series").BeginArray();
    if (!st.queue_depth.empty() && makespan > 0) {
      for (double v : st.queue_depth.Rebucket(makespan, kQueueDepthBuckets)) {
        w->Value(v);
      }
    }
    w->EndArray();
    w->EndObject();
    w->EndObject();
  }
  w->EndArray();

  w->Key("metrics");
  metrics.WriteJson(w);

  w->EndObject();
}

std::string FleetReport::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

FleetReport RunFleet(const FleetConfig& config) { return FleetSim(config).Run(); }

}  // namespace fabacus

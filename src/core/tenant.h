// Multi-tenant QoS (docs/QOS.md): tenant identity, per-tenant flash-space
// quotas, the weighted-fair virtual-time credit scheduler layered under the
// paper's four policies, and per-tenant contention/GC-attribution accounting.
//
// `TenantManager` is the single per-device home for tenant state. Stats are
// lazily materialized on first activity (submit, quota charge, lock wait),
// so configuring N tenants costs nothing for tenants that never show up —
// the PR 8 flat-RSS guarantee extends to per-tenant LogHistogram sketches.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

using TenantId = std::uint16_t;
inline constexpr TenantId kDefaultTenant = 0;

// How the device arbitrates among tenants. kPaper keeps the paper's
// schedulers byte-identical (FIFO within each policy); kWeightedFair layers
// a per-tenant virtual-time credit scheduler under whichever of the four
// policies is selected, with preemption points for latency-class tenants.
enum class TenantSchedPolicy : std::uint8_t { kPaper = 0, kWeightedFair = 1 };

const char* TenantSchedPolicyName(TenantSchedPolicy policy);

struct TenantSpec {
  std::string name;            // empty -> "tenant<id>"
  double weight = 1.0;         // share of LWP time under kWeightedFair
  bool latency_class = false;  // scheduled ahead of throughput tenants
  std::uint64_t quota_bytes = 0;  // flash-space quota; 0 = unlimited
};

struct TenantSchedConfig {
  TenantSchedPolicy policy = TenantSchedPolicy::kPaper;
  // Index == TenantId. Empty means single-tenant mode: every kernel runs as
  // tenant 0 with no quota, and scheduling is exactly the paper's.
  std::vector<TenantSpec> tenants;

  // Returns an error message, or empty when valid.
  std::string Validate() const;
};

// One row of RunReport's per-tenant section.
struct TenantQosReport {
  std::uint32_t id = 0;
  std::string name;
  double weight = 1.0;
  bool latency_class = false;
  std::uint64_t kernels_submitted = 0;
  std::uint64_t kernels_completed = 0;
  HistogramSummary latency_ms;
  double work_instructions = 0.0;
  Tick first_submit = 0;
  Tick last_complete = 0;
  std::uint64_t quota_bytes = 0;  // configured limit (0 = unlimited)
  std::uint64_t quota_used_bytes = 0;
  std::uint64_t quota_denials = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_wait_ns = 0;
  // (holder tenant, times this tenant queued behind it), holder-sorted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> blocked_by;
  std::uint64_t gc_stall_ns = 0;
  std::uint64_t garbage_created_groups = 0;
  std::uint64_t gc_dragged_groups = 0;
};

// Jain's fairness index J = (sum x)^2 / (n * sum x^2) over the active
// tenants, on two axes: weighted throughput rate (work per weight-second of
// each tenant's own active window) and p99 kernel latency.
struct TenantFairness {
  double jain_throughput = 1.0;
  double jain_p99 = 1.0;
  std::uint32_t active_tenants = 0;
};

class TenantManager : public Snapshottable {
 public:
  explicit TenantManager(const TenantSchedConfig& config);

  // Per-tenant metrics/sketches register lazily against `reg` as tenants
  // first become active, under "tenant/<id>/...".
  void AttachMetrics(MetricsRegistry* reg) { registry_ = reg; }

  // True when the config names tenants explicitly (multi-tenant mode).
  bool configured() const { return !config_.tenants.empty(); }
  bool weighted_fair() const {
    return config_.policy == TenantSchedPolicy::kWeightedFair;
  }
  TenantSchedPolicy policy() const { return config_.policy; }
  std::size_t num_tenants() const {
    return configured() ? config_.tenants.size() : 1;
  }
  const TenantSpec& spec(TenantId t) const;
  std::string TenantName(TenantId t) const;
  double weight(TenantId t) const { return spec(t).weight; }
  bool latency_class(TenantId t) const { return spec(t).latency_class; }
  // Compact config descriptor folded into the device ConfigFingerprint.
  std::string ConfigSuffix() const;

  // --- Flash-space quotas -------------------------------------------------
  // Admits `aligned_bytes` (already rounded up to the allocation unit)
  // against the tenant's quota. The effective limit is the quota rounded up
  // to `group_bytes`, so usage can exceed the configured quota by strictly
  // less than one allocation unit, never more. Denials are counted.
  bool TryChargeQuota(TenantId t, std::uint64_t aligned_bytes,
                      std::uint64_t group_bytes);
  std::uint64_t quota_used(TenantId t) const;
  std::uint64_t quota_denials(TenantId t) const;

  // --- Weighted-fair scheduling -------------------------------------------
  void OnSubmit(TenantId t, Tick now);
  void OnComplete(TenantId t, double latency_ms, Tick now);
  // Charges `instructions` of LWP work: advances the tenant's virtual time
  // by work/weight and its work_instructions total.
  void ChargeWork(TenantId t, double instructions);
  double virtual_time(TenantId t) const;
  // Activation clamp: a tenant that sat idle must not monopolize workers on
  // return; its virtual time jumps forward to `floor_vt` if behind.
  void ClampVirtualTime(TenantId t, double floor_vt);

  // --- Contention / GC attribution ----------------------------------------
  void RecordLockWait(TenantId waiter, Tick wait_ns);
  void RecordLockBlocked(TenantId waiter, TenantId holder);
  void RecordGcStall(TenantId delayed, Tick stall_ns);
  void RecordGarbageCreated(TenantId causer, std::uint64_t groups);
  void RecordGcDrag(TenantId owner, std::uint64_t groups);

  // Number of tenants with materialized stats (== tenants that ever acted).
  // Pinned by tests to hold the lazy-allocation guarantee.
  std::size_t allocated_stats_count() const { return state_.size(); }
  bool HasState(TenantId t) const { return state_.count(t) != 0; }

  // --- Reporting ----------------------------------------------------------
  // One row per active tenant, id-sorted. Idle tenants are absent.
  std::vector<TenantQosReport> BuildReport() const;
  static TenantFairness ComputeFairness(const std::vector<TenantQosReport>& rows);

  // --- Snapshot ------------------------------------------------------------
  std::string StateName() const override { return "tenants"; }
  void Persist(StateIO& io) override;

 private:
  struct State {
    std::uint64_t kernels_submitted = 0;
    std::uint64_t kernels_completed = 0;
    std::uint64_t quota_used = 0;
    std::uint64_t quota_denials = 0;
    double vt = 0.0;  // virtual time, instruction units / weight
    double work_instructions = 0.0;
    Tick first_submit = 0;
    bool saw_submit = false;
    Tick last_complete = 0;
    std::uint64_t lock_waits = 0;
    std::uint64_t lock_wait_ns = 0;
    std::uint64_t gc_stall_ns = 0;
    std::uint64_t garbage_created_groups = 0;
    std::uint64_t gc_dragged_groups = 0;
    LogHistogram latency_ms;  // lazy: ~18 KB only after first Record
    std::map<TenantId, std::uint64_t> blocked_by;
  };

  State& EnsureState(TenantId t);
  void RegisterTenantMetrics(TenantId t, State& s);

  TenantSchedConfig config_;
  TenantSpec default_spec_;  // single-tenant mode spec for tenant 0
  // Keyed map (not a dense vector): nodes materialize on first activity and
  // pointers stay stable for the metric gauges capturing them.
  std::map<TenantId, State> state_;
  MetricsRegistry* registry_ = nullptr;
  std::set<TenantId> metrics_registered_;
};

}  // namespace fabacus

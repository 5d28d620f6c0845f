#include "src/core/tenant.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/sim/log.h"

namespace fabacus {

const char* TenantSchedPolicyName(TenantSchedPolicy policy) {
  switch (policy) {
    case TenantSchedPolicy::kPaper:
      return "paper";
    case TenantSchedPolicy::kWeightedFair:
      return "weighted-fair";
  }
  return "unknown";
}

std::string TenantSchedConfig::Validate() const {
  if (tenants.size() > 4096) {
    return "tenant_sched: too many tenants (max 4096)";
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& t = tenants[i];
    if (!(t.weight > 0.0) || !std::isfinite(t.weight)) {
      return "tenant_sched: tenant " + std::to_string(i) +
             " weight must be positive and finite";
    }
  }
  if (policy == TenantSchedPolicy::kWeightedFair && tenants.empty()) {
    return "tenant_sched: weighted-fair policy requires explicit tenants";
  }
  return "";
}

TenantManager::TenantManager(const TenantSchedConfig& config) : config_(config) {
  FAB_CHECK(config_.Validate().empty()) << config_.Validate();
}

const TenantSpec& TenantManager::spec(TenantId t) const {
  if (!configured()) {
    FAB_CHECK_EQ(t, kDefaultTenant)
        << "tenant id used without tenant_sched.tenants configured";
    return default_spec_;
  }
  FAB_CHECK_LT(t, config_.tenants.size()) << "tenant id out of range";
  return config_.tenants[t];
}

std::string TenantManager::TenantName(TenantId t) const {
  const TenantSpec& s = spec(t);
  if (!s.name.empty()) {
    return s.name;
  }
  return "tenant" + std::to_string(t);
}

std::string TenantManager::ConfigSuffix() const {
  if (!configured()) {
    return "";
  }
  std::ostringstream ss;
  ss << ";tsched=" << TenantSchedPolicyName(config_.policy) << ";tn=";
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantSpec& t = config_.tenants[i];
    if (i != 0) {
      ss << ",";
    }
    ss << t.weight << ":" << t.quota_bytes << ":" << (t.latency_class ? 1 : 0);
  }
  return ss.str();
}

bool TenantManager::TryChargeQuota(TenantId t, std::uint64_t aligned_bytes,
                                   std::uint64_t group_bytes) {
  FAB_CHECK_GT(group_bytes, 0u);
  State& s = EnsureState(t);
  const std::uint64_t quota = spec(t).quota_bytes;
  if (quota != 0) {
    // Effective limit: quota rounded up to the allocation unit, so usage may
    // overshoot the configured quota by strictly less than one unit.
    const std::uint64_t limit =
        (quota + group_bytes - 1) / group_bytes * group_bytes;
    if (s.quota_used + aligned_bytes > limit) {
      ++s.quota_denials;
      return false;
    }
  }
  s.quota_used += aligned_bytes;
  return true;
}

std::uint64_t TenantManager::quota_used(TenantId t) const {
  auto it = state_.find(t);
  return it == state_.end() ? 0 : it->second.quota_used;
}

std::uint64_t TenantManager::quota_denials(TenantId t) const {
  auto it = state_.find(t);
  return it == state_.end() ? 0 : it->second.quota_denials;
}

void TenantManager::OnSubmit(TenantId t, Tick now) {
  State& s = EnsureState(t);
  ++s.kernels_submitted;
  if (!s.saw_submit) {
    s.saw_submit = true;
    s.first_submit = now;
  }
}

void TenantManager::OnComplete(TenantId t, double latency_ms, Tick now) {
  State& s = EnsureState(t);
  ++s.kernels_completed;
  s.latency_ms.Record(latency_ms);
  s.last_complete = std::max(s.last_complete, now);
}

void TenantManager::ChargeWork(TenantId t, double instructions) {
  State& s = EnsureState(t);
  s.work_instructions += instructions;
  s.vt += instructions / weight(t);
}

double TenantManager::virtual_time(TenantId t) const {
  auto it = state_.find(t);
  return it == state_.end() ? 0.0 : it->second.vt;
}

void TenantManager::ClampVirtualTime(TenantId t, double floor_vt) {
  State& s = EnsureState(t);
  s.vt = std::max(s.vt, floor_vt);
}

void TenantManager::RecordLockWait(TenantId waiter, Tick wait_ns) {
  State& s = EnsureState(waiter);
  ++s.lock_waits;
  s.lock_wait_ns += wait_ns;
}

void TenantManager::RecordLockBlocked(TenantId waiter, TenantId holder) {
  State& s = EnsureState(waiter);
  ++s.blocked_by[holder];
}

void TenantManager::RecordGcStall(TenantId delayed, Tick stall_ns) {
  EnsureState(delayed).gc_stall_ns += stall_ns;
}

void TenantManager::RecordGarbageCreated(TenantId causer, std::uint64_t groups) {
  EnsureState(causer).garbage_created_groups += groups;
}

void TenantManager::RecordGcDrag(TenantId owner, std::uint64_t groups) {
  EnsureState(owner).gc_dragged_groups += groups;
}

std::vector<TenantQosReport> TenantManager::BuildReport() const {
  std::vector<TenantQosReport> rows;
  rows.reserve(state_.size());
  for (const auto& [id, s] : state_) {
    TenantQosReport row;
    row.id = id;
    row.name = TenantName(id);
    row.weight = weight(id);
    row.latency_class = latency_class(id);
    row.kernels_submitted = s.kernels_submitted;
    row.kernels_completed = s.kernels_completed;
    row.latency_ms = s.latency_ms.Summarize();
    row.work_instructions = s.work_instructions;
    row.first_submit = s.first_submit;
    row.last_complete = s.last_complete;
    row.quota_bytes = spec(id).quota_bytes;
    row.quota_used_bytes = s.quota_used;
    row.quota_denials = s.quota_denials;
    row.lock_waits = s.lock_waits;
    row.lock_wait_ns = s.lock_wait_ns;
    for (const auto& [holder, count] : s.blocked_by) {
      row.blocked_by.emplace_back(holder, count);
    }
    row.gc_stall_ns = s.gc_stall_ns;
    row.garbage_created_groups = s.garbage_created_groups;
    row.gc_dragged_groups = s.gc_dragged_groups;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

double JainIndex(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 1.0;
  }
  double sum = 0.0, sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(xs.size()) * sumsq);
}

}  // namespace

TenantFairness TenantManager::ComputeFairness(
    const std::vector<TenantQosReport>& rows) {
  TenantFairness f;
  std::vector<double> rates, p99s;
  for (const TenantQosReport& row : rows) {
    if (row.kernels_completed == 0) {
      continue;
    }
    // Weighted throughput rate over the tenant's own active window: under a
    // fair schedule every tenant progresses at work/weight parity, so equal
    // rates <=> fairness even when offered loads differ.
    const double window = std::max<double>(
        1.0, static_cast<double>(row.last_complete - row.first_submit));
    rates.push_back(row.work_instructions / row.weight / window);
    p99s.push_back(row.latency_ms.p99);
  }
  f.active_tenants = static_cast<std::uint32_t>(rates.size());
  f.jain_throughput = JainIndex(rates);
  f.jain_p99 = JainIndex(p99s);
  return f;
}

TenantManager::State& TenantManager::EnsureState(TenantId t) {
  // Validates the id against the config before materializing state.
  (void)spec(t);
  auto it = state_.find(t);
  if (it != state_.end()) {
    return it->second;
  }
  State& s = state_[t];
  RegisterTenantMetrics(t, s);
  return s;
}

void TenantManager::RegisterTenantMetrics(TenantId t, State& s) {
  if (registry_ == nullptr || metrics_registered_.count(t) != 0) {
    return;
  }
  metrics_registered_.insert(t);
  const std::string p = "tenant/" + std::to_string(t) + "/";
  State* sp = &s;  // map nodes are pointer-stable
  registry_->RegisterGauge(p + "kernels_completed", [sp](Tick) {
    return static_cast<double>(sp->kernels_completed);
  });
  registry_->RegisterGauge(p + "quota_used_bytes", [sp](Tick) {
    return static_cast<double>(sp->quota_used);
  });
  registry_->RegisterGauge(p + "quota_denials", [sp](Tick) {
    return static_cast<double>(sp->quota_denials);
  });
  registry_->RegisterGauge(p + "lock_wait_ns", [sp](Tick) {
    return static_cast<double>(sp->lock_wait_ns);
  });
  registry_->RegisterGauge(p + "gc_stall_ns", [sp](Tick) {
    return static_cast<double>(sp->gc_stall_ns);
  });
  registry_->RegisterGauge(p + "garbage_created_groups", [sp](Tick) {
    return static_cast<double>(sp->garbage_created_groups);
  });
  registry_->RegisterGauge(p + "gc_dragged_groups", [sp](Tick) {
    return static_cast<double>(sp->gc_dragged_groups);
  });
  registry_->RegisterHistogram(p + "latency_ms", &sp->latency_ms);
}

void TenantManager::Persist(StateIO& io) {
  // Sparse rows: only tenants that have acted carry state, by ascending id.
  std::uint64_t n = state_.size();
  io.U64(n);
  if (!io.saving()) {
    state_.clear();
    if (n > 65536) {
      io.Fail("tenants: implausible state count");
      return;
    }
  }
  auto row = [&io](State& s) {
    io.U64(s.kernels_submitted);
    io.U64(s.kernels_completed);
    io.U64(s.quota_used);
    io.U64(s.quota_denials);
    io.F64(s.vt);
    io.F64(s.work_instructions);
    io.U64(s.first_submit);
    io.Bool(s.saw_submit);
    io.U64(s.last_complete);
    io.U64(s.lock_waits);
    io.U64(s.lock_wait_ns);
    io.U64(s.gc_stall_ns);
    io.U64(s.garbage_created_groups);
    io.U64(s.gc_dragged_groups);
    s.latency_ms.Persist(io);
    std::uint64_t nb = s.blocked_by.size();
    io.U64(nb);
    if (io.saving()) {
      for (auto& [holder, count] : s.blocked_by) {
        std::uint32_t h = holder;
        io.U32(h);
        io.U64(count);
      }
      return;
    }
    if (nb > 65536) {
      io.Fail("tenants: implausible blocked_by count");
      return;
    }
    s.blocked_by.clear();
    for (std::uint64_t j = 0; j < nb && io.ok(); ++j) {
      std::uint32_t holder = 0;
      io.U32(holder);
      io.U64(s.blocked_by[static_cast<TenantId>(holder)]);
    }
  };
  if (io.saving()) {
    for (auto& [id, s] : state_) {
      std::uint32_t raw_id = id;
      io.U32(raw_id);
      row(s);
    }
    return;
  }
  for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
    std::uint32_t raw_id = 0;
    io.U32(raw_id);
    if (raw_id >= num_tenants()) {
      io.Fail("tenants: tenant id out of range for config");
      return;
    }
    row(EnsureState(static_cast<TenantId>(raw_id)));
  }
}

}  // namespace fabacus

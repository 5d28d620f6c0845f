#include "src/core/run_report.h"

#include <utility>

#include "src/sim/json.h"

namespace fabacus {
namespace {

// Tags worth summarizing in the report; the full interval list lives in the
// Chrome-trace export, the report only carries per-tag aggregates.
constexpr TraceTag kSummaryTags[] = {
    TraceTag::kLwpCompute, TraceTag::kFlashOp,  TraceTag::kHostStack,
    TraceTag::kSsdOp,      TraceTag::kPcieXfer, TraceTag::kSchedule,
    TraceTag::kGc,         TraceTag::kFlashChan,
};

}  // namespace

EnergyBreakdown RunReport::EnergySummary() const {
  EnergyBreakdown b;
  b.data_movement_j = energy.BucketJoules(EnergyBucket::kDataMovement);
  b.computation_j = energy.BucketJoules(EnergyBucket::kComputation);
  b.storage_access_j = energy.BucketJoules(EnergyBucket::kStorageAccess);
  b.total_j = energy.TotalJoules();
  return b;
}

HistogramSummary RunReport::KernelLatencyMs() const {
  std::vector<double> ms;
  ms.reserve(completion_times.size());
  for (Tick t : completion_times) {
    ms.push_back(TicksToMs(t));
  }
  return SummarizeSamples(std::move(ms));
}

void RunReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("schema_version", kJsonSchemaVersion);
  w->Field("system", system);
  w->Field("makespan_ns", static_cast<double>(makespan));
  w->Field("input_bytes", input_bytes);
  w->Field("throughput_mb_s", throughput_mb_s);
  w->Field("worker_utilization", worker_utilization);

  w->Key("kernel_latency_ms");
  WriteSummaryJson(w, KernelLatencyMs());

  w->Key("completion_times_ms").BeginArray();
  for (Tick t : completion_times) {
    w->Value(TicksToMs(t));
  }
  w->EndArray();

  // Per-tenant QoS rows (docs/QOS.md). Always present since schema v3; an
  // empty array means the device ran single-tenant.
  w->Key("tenants").BeginArray();
  for (const TenantQosReport& t : tenants) {
    w->BeginObject();
    w->Field("id", static_cast<double>(t.id));
    w->Field("name", t.name);
    w->Field("weight", t.weight);
    w->Field("latency_class", t.latency_class);
    w->Field("kernels_submitted", static_cast<double>(t.kernels_submitted));
    w->Field("kernels_completed", static_cast<double>(t.kernels_completed));
    w->Key("latency_ms");
    WriteSummaryJson(w, t.latency_ms);
    w->Field("work_instructions", t.work_instructions);
    w->Field("first_submit_ns", static_cast<double>(t.first_submit));
    w->Field("last_complete_ns", static_cast<double>(t.last_complete));
    w->Key("quota").BeginObject();
    w->Field("limit_bytes", static_cast<double>(t.quota_bytes))
        .Field("used_bytes", static_cast<double>(t.quota_used_bytes))
        .Field("denials", static_cast<double>(t.quota_denials))
        .EndObject();
    w->Key("locks").BeginObject();
    w->Field("waits", static_cast<double>(t.lock_waits))
        .Field("wait_ns", static_cast<double>(t.lock_wait_ns));
    w->Key("blocked_by").BeginObject();
    for (const auto& [holder, count] : t.blocked_by) {
      w->Field(std::to_string(holder), static_cast<double>(count));
    }
    w->EndObject();
    w->EndObject();
    w->Key("gc").BeginObject();
    w->Field("stall_ns", static_cast<double>(t.gc_stall_ns))
        .Field("garbage_created_groups", static_cast<double>(t.garbage_created_groups))
        .Field("dragged_groups", static_cast<double>(t.gc_dragged_groups))
        .EndObject();
    w->EndObject();
  }
  w->EndArray();

  w->Key("fairness").BeginObject();
  w->Field("jain_throughput", fairness.jain_throughput)
      .Field("jain_p99", fairness.jain_p99)
      .Field("active_tenants", static_cast<double>(fairness.active_tenants))
      .EndObject();

  const EnergyBreakdown e = EnergySummary();
  w->Key("energy").BeginObject();
  w->Field("total_j", e.total_j)
      .Field("data_movement_j", e.data_movement_j)
      .Field("computation_j", e.computation_j)
      .Field("storage_access_j", e.storage_access_j);
  w->Key("components").BeginObject();
  for (const auto& [name, joules] : energy.per_component()) {
    w->Field(name, joules);
  }
  w->EndObject();
  w->EndObject();

  w->Key("metrics");
  metrics.WriteJson(w);

  w->Key("trace_summary").BeginObject();
  for (TraceTag tag : kSummaryTags) {
    std::size_t n = 0;
    for (const TaggedInterval& iv : trace.intervals()) {
      if (iv.tag == tag) {
        ++n;
      }
    }
    if (n == 0) {
      continue;
    }
    w->Key(TraceTagName(tag)).BeginObject();
    w->Field("intervals", static_cast<double>(n))
        .Field("union_ns", static_cast<double>(trace.UnionTime(tag)))
        .Field("total_ns", static_cast<double>(trace.TotalTime(tag)))
        .EndObject();
  }
  w->EndObject();

  w->EndObject();
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.TakeString();
}

}  // namespace fabacus

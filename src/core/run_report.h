// RunReport: the outcome of one accelerated run (one workload set, one
// scheduler), bundling everything the paper's evaluation reads — makespan and
// throughput, per-instance completion times (Fig 12's CDFs, and through
// KernelLatencyMs() Fig 11's per-kernel latency), the energy decomposition,
// the full tagged interval trace, and a MetricsSnapshot of every component
// counter/gauge/histogram. Serializes to versioned JSON (schema_version pins
// the layout; see docs/OBSERVABILITY.md).
#ifndef SRC_CORE_RUN_REPORT_H_
#define SRC_CORE_RUN_REPORT_H_

#include <string>
#include <vector>

#include "src/core/tenant.h"
#include "src/core/trace.h"
#include "src/power/energy_meter.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

class JsonWriter;

// The paper's Fig-13/16 energy decomposition, in joules.
struct EnergyBreakdown {
  double data_movement_j = 0.0;
  double computation_j = 0.0;
  double storage_access_j = 0.0;
  double total_j = 0.0;
};

struct RunReport {
  std::string system;
  Tick makespan = 0;
  double input_bytes = 0.0;   // modelled bytes processed (all instances)
  double throughput_mb_s = 0.0;
  // Per-instance completion, relative to the run's start, in completion
  // order: the Fig-12 CDFs.
  std::vector<Tick> completion_times;
  double worker_utilization = 0.0;     // mean across worker LWPs
  // Per-tenant QoS rows (docs/QOS.md) and the Jain's-index fairness summary.
  // Empty / identity values on single-tenant devices.
  std::vector<TenantQosReport> tenants;
  TenantFairness fairness;
  EnergyMeter energy;
  RunTrace trace;
  MetricsSnapshot metrics;  // every component counter/gauge at run end

  EnergyBreakdown EnergySummary() const;
  // Per-instance submit->complete latency (Fig 11), summarized exactly. Run
  // stamps every instance's submit time with the run's start tick, so each
  // completion time is that instance's latency.
  HistogramSummary KernelLatencyMs() const;

  // Serializes the report (metrics snapshot, energy decomposition, latency
  // summary, completion times, per-tag trace summary) as versioned JSON.
  // The full interval trace is exported separately via trace.ToChromeTrace().
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;
};

}  // namespace fabacus

#endif  // SRC_CORE_RUN_REPORT_H_

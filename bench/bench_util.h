// Shared harness for the figure/table reproduction benches: runs a workload
// set on the five accelerated systems of the paper's evaluation (SIMD,
// InterSt, InterDy, IntraIo, IntraO3) on fresh devices and returns the
// RunReports, plus table-printing helpers and schema-stable JSON emission
// (set FABACUS_BENCH_JSON_DIR to collect machine-readable results).
//
// Sweep execution: every run is an independent simulation (own Simulator,
// device, RNG, metrics registry), so the benches enqueue their full
// (workload x system x config) grid into a BenchSweep and execute it across
// a SweepRunner thread pool. Results come back in enqueue order — tables and
// JSON are byte-identical for any thread count (FABACUS_SWEEP_THREADS=1 to
// force serial).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/host/simd_system.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/workload.h"

namespace fabacus {

// Default modelled-data scale for benches: 1/16 of the paper's input sizes.
// Throughput (MB/s) is nearly scale-invariant since both bytes and time
// shrink together; see EXPERIMENTS.md.
inline constexpr double kBenchScale = 1.0 / 16.0;

struct BenchRun {
  std::string system;
  RunReport result;
  // The instances' verification outcome (true = the run completed and every
  // output matched its reference implementation).
  bool verified = true;
  // Host-side cost of producing this run (engine observability; satellite
  // metrics of docs/PERFORMANCE.md). Simulated ticks are the final simulator
  // clock, events the number executed — both cover install + run.
  double wall_seconds = 0.0;
  double sim_ticks = 0.0;
  std::uint64_t events_executed = 0;
};

// Per-run knobs shared by every bench entry point.
struct BenchOptions {
  double model_scale = kBenchScale;
  std::uint64_t seed = 42;
  int num_lwps = 8;  // SIMD baseline only
  // Full interval trace (Fig-14/15 series, Chrome-trace export). Off by
  // default: throughput benches keep only the energy-model tags.
  bool record_full_trace = false;
};

// Builds `instances_per_app` instances of every workload in `apps` (app_id =
// index within `apps`) and runs them on one system. Fresh simulator + device
// per call.
BenchRun RunFlashAbacusSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                              SchedulerKind kind, const BenchOptions& opt = {});
// Variant taking a fully custom device config (ablation benches); opt's
// model_scale/record_full_trace are ignored in favor of the config's fields.
BenchRun RunFlashAbacusSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                              SchedulerKind kind, const FlashAbacusConfig& cfg,
                              const BenchOptions& opt = {});
// Multi-tenant variant (docs/QOS.md): instances of apps[i] are tagged with
// tenant app_tenants[i] (one entry per app). Instances denied by a flash
// quota at install are excluded from the run (and from verification); the
// denial shows up in the report's tenant rows.
BenchRun RunFlashAbacusSystemTenants(const std::vector<const Workload*>& apps,
                                     const std::vector<TenantId>& app_tenants,
                                     int instances_per_app, SchedulerKind kind,
                                     const FlashAbacusConfig& cfg,
                                     const BenchOptions& opt = {});
BenchRun RunSimdSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                       const BenchOptions& opt = {});

// All five systems, paper order: SIMD, InterSt, IntraIo, InterDy, IntraO3.
// Runs concurrently on the shared sweep pool; results in paper order.
std::vector<BenchRun> RunAllSystems(const std::vector<const Workload*>& apps,
                                    int instances_per_app, const BenchOptions& opt = {});

// A deferred grid of bench runs. Enqueue jobs (cheap closures), Run() once,
// then read results by the indices Add/AddAllSystems returned. Runs execute
// concurrently on a SweepRunner; result order is enqueue order.
class BenchSweep {
 public:
  BenchSweep() = default;

  // Enqueues one run; returns its result index.
  std::size_t Add(std::function<BenchRun()> job);
  // Enqueues the five paper systems for one workload set; returns the index
  // of the first (SIMD); the five occupy [first, first+5) in paper order.
  std::size_t AddAllSystems(std::vector<const Workload*> apps, int instances_per_app,
                            const BenchOptions& opt = {});

  // Executes every enqueued job (no-op when called again without new jobs).
  void Run();

  // Valid after Run().
  const BenchRun& Get(std::size_t i) const;
  // The five runs enqueued by AddAllSystems(first).
  std::vector<BenchRun> TakeSystems(std::size_t first) const;
  std::size_t size() const { return jobs_.size(); }

 private:
  std::vector<std::function<BenchRun()>> jobs_;
  std::vector<BenchRun> results_;
  std::size_t executed_ = 0;
};

// Formatting helpers.
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells, int width = 12);
std::string Fmt(double v, int precision = 1);

// Peak resident-set size of this process, in bytes (getrusage ru_maxrss).
std::uint64_t PeakRssBytes();

// Schema-stable JSON emission for the figure benches. When the environment
// variable FABACUS_BENCH_JSON_DIR is set, the destructor writes
// <dir>/<bench_name>.json containing one row per recorded run:
//   {"schema_version": 1, "bench": ..., "rows": [{label, system, verified,
//    makespan_ms, throughput_mb_s, worker_utilization, wall_seconds,
//    sim_ticks_per_wall_second, events_per_second, peak_rss_bytes,
//    energy{...}, kernel_latency_ms{...}}, ...]}
// With the variable unset every call is a no-op, so benches stay printf-only
// by default.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name);
  ~BenchJson();
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  bool enabled() const { return !out_dir_.empty(); }

  // Every bench emits through one call shape: a row is an ordered list of
  // named scalar fields plus optional named field groups (nested one level,
  // e.g. "energy"), serialized in insertion order. AddRun is a thin wrapper
  // that expands a BenchRun into that shape (verified/makespan/throughput/
  // engine-cost fields plus the energy and kernel-latency groups); ablation
  // and fleet benches call AddScalarRow directly.
  struct FieldGroup {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  void AddRun(const std::string& label, const BenchRun& run);
  void AddScalarRow(const std::string& label, const std::string& system,
                    const std::vector<std::pair<std::string, double>>& fields,
                    const std::vector<FieldGroup>& groups = {});

 private:
  std::string bench_name_;
  std::string out_dir_;  // empty = disabled
  // One scalar field; booleans keep their JSON type (true/false, not 0/1).
  struct Field {
    std::string name;
    double num = 0.0;
    bool is_bool = false;
    bool flag = false;
  };
  struct Row {
    std::string label;
    std::string system;
    std::vector<Field> fields;
    std::vector<FieldGroup> groups;
  };
  std::vector<Row> rows_;
};

}  // namespace fabacus

#endif  // BENCH_BENCH_UTIL_H_

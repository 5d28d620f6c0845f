#include "bench/bench_util.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/sim/json.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace fabacus {
namespace {

struct InstanceSet {
  std::vector<std::unique_ptr<AppInstance>> owned;
  std::vector<AppInstance*> raw;
};

InstanceSet BuildInstances(const std::vector<const Workload*>& apps, int instances_per_app,
                           double model_scale, std::uint64_t seed) {
  InstanceSet set;
  Rng rng(seed);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (int i = 0; i < instances_per_app; ++i) {
      auto inst = std::make_unique<AppInstance>(static_cast<int>(a), i, &apps[a]->spec(),
                                                model_scale);
      apps[a]->Prepare(*inst, rng);
      set.raw.push_back(inst.get());
      set.owned.push_back(std::move(inst));
    }
  }
  return set;
}

bool VerifyAll(const std::vector<const Workload*>& apps, const InstanceSet& set) {
  bool ok = true;
  for (const auto& inst : set.owned) {
    ok = ok && apps[static_cast<std::size_t>(inst->app_id())]->Verify(*inst);
  }
  return ok;
}

// Wall-clock + engine counters around one simulated run.
class RunMeter {
 public:
  explicit RunMeter(BenchRun* run) : run_(run), start_(std::chrono::steady_clock::now()) {}
  void Finish(const Simulator& sim) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    run_->wall_seconds = std::chrono::duration<double>(elapsed).count();
    run_->sim_ticks = static_cast<double>(sim.Now());
    run_->events_executed = sim.events_executed();
  }

 private:
  BenchRun* run_;
  std::chrono::steady_clock::time_point start_;
};

// The sweep pool every bench shares (sized once from FABACUS_SWEEP_THREADS /
// hardware concurrency).
const SweepRunner& SharedSweepRunner() {
  static SweepRunner runner;
  return runner;
}

}  // namespace

BenchRun RunFlashAbacusSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                              SchedulerKind kind, const BenchOptions& opt) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.model_scale = opt.model_scale;
  cfg.record_full_trace = opt.record_full_trace;
  return RunFlashAbacusSystem(apps, instances_per_app, kind, cfg, opt);
}

BenchRun RunFlashAbacusSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                              SchedulerKind kind, const FlashAbacusConfig& cfg,
                              const BenchOptions& opt) {
  BenchRun run;
  RunMeter meter(&run);
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  InstanceSet set = BuildInstances(apps, instances_per_app, cfg.model_scale, opt.seed);
  for (AppInstance* inst : set.raw) {
    dev.InstallData(inst, [](Tick) {});
  }
  sim.Run();
  run.system = SchedulerKindName(kind);
  bool done = false;
  dev.Run(set.raw, kind, [&](RunReport r) {
    run.result = std::move(r);
    done = true;
  });
  sim.Run();
  if (!done) {
    std::fprintf(stderr, "ERROR: %s run did not complete\n", run.system.c_str());
  }
  run.verified = VerifyAll(apps, set);
  meter.Finish(sim);
  return run;
}

BenchRun RunFlashAbacusSystemTenants(const std::vector<const Workload*>& apps,
                                     const std::vector<TenantId>& app_tenants,
                                     int instances_per_app, SchedulerKind kind,
                                     const FlashAbacusConfig& cfg, const BenchOptions& opt) {
  FAB_CHECK_EQ(apps.size(), app_tenants.size());
  BenchRun run;
  RunMeter meter(&run);
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  InstanceSet set = BuildInstances(apps, instances_per_app, cfg.model_scale, opt.seed);
  std::vector<AppInstance*> admitted;
  for (AppInstance* inst : set.raw) {
    inst->tenant = app_tenants[static_cast<std::size_t>(inst->app_id())];
    if (dev.InstallData(inst, [](Tick) {})) {
      admitted.push_back(inst);
    }
  }
  sim.Run();
  run.system = SchedulerKindName(kind);
  bool done = false;
  if (!admitted.empty()) {
    dev.Run(admitted, kind, [&](RunReport r) {
      run.result = std::move(r);
      done = true;
    });
    sim.Run();
  } else {
    // Every instance was quota-denied; report the tenant rows anyway.
    run.result.system = SchedulerKindName(kind);
    run.result.tenants = dev.tenants().BuildReport();
    run.result.fairness = TenantManager::ComputeFairness(run.result.tenants);
    done = true;
  }
  if (!done) {
    std::fprintf(stderr, "ERROR: %s tenant run did not complete\n", run.system.c_str());
  }
  run.verified = true;
  for (const AppInstance* inst : admitted) {
    run.verified =
        run.verified && apps[static_cast<std::size_t>(inst->app_id())]->Verify(*inst);
  }
  meter.Finish(sim);
  return run;
}

BenchRun RunSimdSystem(const std::vector<const Workload*>& apps, int instances_per_app,
                       const BenchOptions& opt) {
  BenchRun run;
  RunMeter meter(&run);
  Simulator sim;
  SimdConfig cfg;
  cfg.model_scale = opt.model_scale;
  cfg.num_lwps = opt.num_lwps;
  cfg.record_full_trace = opt.record_full_trace;
  SimdSystem simd(&sim, cfg);
  InstanceSet set = BuildInstances(apps, instances_per_app, opt.model_scale, opt.seed);
  for (AppInstance* inst : set.raw) {
    simd.InstallData(inst);
  }
  run.system = "SIMD";
  bool done = false;
  simd.Run(set.raw, [&](RunReport r) {
    run.result = std::move(r);
    done = true;
  });
  sim.Run();
  if (!done) {
    std::fprintf(stderr, "ERROR: SIMD run did not complete\n");
  }
  run.verified = VerifyAll(apps, set);
  meter.Finish(sim);
  return run;
}

std::vector<BenchRun> RunAllSystems(const std::vector<const Workload*>& apps,
                                    int instances_per_app, const BenchOptions& opt) {
  BenchSweep sweep;
  const std::size_t first = sweep.AddAllSystems(apps, instances_per_app, opt);
  sweep.Run();
  return sweep.TakeSystems(first);
}

std::size_t BenchSweep::Add(std::function<BenchRun()> job) {
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::size_t BenchSweep::AddAllSystems(std::vector<const Workload*> apps, int instances_per_app,
                                      const BenchOptions& opt) {
  const std::size_t first =
      Add([apps, instances_per_app, opt]() { return RunSimdSystem(apps, instances_per_app, opt); });
  for (SchedulerKind kind :
       {SchedulerKind::kInterStatic, SchedulerKind::kIntraInOrder, SchedulerKind::kInterDynamic,
        SchedulerKind::kIntraOutOfOrder}) {
    Add([apps, instances_per_app, kind, opt]() {
      return RunFlashAbacusSystem(apps, instances_per_app, kind, opt);
    });
  }
  return first;
}

void BenchSweep::Run() {
  if (executed_ == jobs_.size()) {
    return;
  }
  // The workload registry is built lazily; touch it once on this thread so
  // worker threads only ever read it.
  WorkloadRegistry::Get();
  results_.resize(jobs_.size());
  const std::size_t base = executed_;
  SharedSweepRunner().RunIndexed(jobs_.size() - base, [&](std::size_t i) {
    results_[base + i] = jobs_[base + i]();
  });
  executed_ = jobs_.size();
}

const BenchRun& BenchSweep::Get(std::size_t i) const {
  FAB_CHECK(i < executed_) << "BenchSweep::Get before Run()";
  return results_[i];
}

std::vector<BenchRun> BenchSweep::TakeSystems(std::size_t first) const {
  std::vector<BenchRun> out;
  out.reserve(5);
  for (std::size_t i = first; i < first + 5; ++i) {
    out.push_back(Get(i));
  }
  return out;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& c : cells) {
    std::printf("%-*s", width, c.c_str());
  }
  std::printf("\n");
}

std::string Fmt(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

std::uint64_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    return 0;
  }
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

BenchJson::BenchJson(std::string bench_name) : bench_name_(std::move(bench_name)) {
  const char* dir = std::getenv("FABACUS_BENCH_JSON_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    out_dir_ = dir;
  }
}

void BenchJson::AddRun(const std::string& label, const BenchRun& run) {
  if (!enabled()) {
    return;
  }
  // Expand the BenchRun into the common fields+groups row shape. The field
  // order here is the JSON contract (docs/OBSERVABILITY.md): goldens and
  // external tooling byte-compare these documents.
  const EnergyBreakdown e = run.result.EnergySummary();
  const Histogram& lat = run.result.kernel_latency_ms;
  const double wall = run.wall_seconds;
  Row row;
  row.label = label;
  row.system = run.system;
  row.fields.push_back({"verified", 0.0, true, run.verified});
  const auto num = [&row](const std::string& name, double v) {
    row.fields.push_back({name, v, false, false});
  };
  num("makespan_ms", TicksToMs(run.result.makespan));
  num("throughput_mb_s", run.result.throughput_mb_s);
  num("worker_utilization", run.result.worker_utilization);
  num("wall_seconds", wall);
  num("sim_ticks_per_wall_second", wall > 0.0 ? run.sim_ticks / wall : 0.0);
  num("events_per_second",
      wall > 0.0 ? static_cast<double>(run.events_executed) / wall : 0.0);
  num("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  FieldGroup energy{"energy",
                    {{"total_j", e.total_j},
                     {"data_movement_j", e.data_movement_j},
                     {"computation_j", e.computation_j},
                     {"storage_access_j", e.storage_access_j}}};
  FieldGroup latency{"kernel_latency_ms",
                     {{"count", static_cast<double>(lat.count())}}};
  if (lat.count() > 0) {
    latency.fields.insert(latency.fields.end(),
                          {{"min", lat.Min()},
                           {"mean", lat.Mean()},
                           {"p50", lat.Percentile(50)},
                           {"p95", lat.Percentile(95)},
                           {"p99", lat.Percentile(99)},
                           {"max", lat.Max()}});
  }
  row.groups.push_back(std::move(energy));
  row.groups.push_back(std::move(latency));
  rows_.push_back(std::move(row));
}

void BenchJson::AddScalarRow(const std::string& label, const std::string& system,
                             const std::vector<std::pair<std::string, double>>& fields,
                             const std::vector<FieldGroup>& groups) {
  if (!enabled()) {
    return;
  }
  Row row;
  row.label = label;
  row.system = system;
  row.fields.push_back({"peak_rss_bytes", static_cast<double>(PeakRssBytes()), false, false});
  for (const auto& [name, value] : fields) {
    row.fields.push_back({name, value, false, false});
  }
  row.groups = groups;
  rows_.push_back(std::move(row));
}

BenchJson::~BenchJson() {
  if (!enabled()) {
    return;
  }
  JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", kJsonSchemaVersion);
  w.Field("bench", bench_name_);
  w.Key("rows").BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject().Field("label", row.label).Field("system", row.system);
    for (const Field& f : row.fields) {
      if (f.is_bool) {
        w.Field(f.name, f.flag);
      } else {
        w.Field(f.name, f.num);
      }
    }
    for (const FieldGroup& g : row.groups) {
      w.Key(g.name).BeginObject();
      for (const auto& [name, value] : g.fields) {
        w.Field(name, value);
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string path = out_dir_ + "/" + bench_name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace fabacus

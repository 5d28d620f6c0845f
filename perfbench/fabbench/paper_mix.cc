// paper_mix: the paper's headline comparison (Fig 10b / Fig 13). Three of the
// Table-2 heterogeneous mixes, four instances of each of their six apps (24
// kernels per device run), each mix on a fresh Table-1 device at 1/16 scale
// under IntraO3 and on the SIMD baseline, with every output verified against
// its reference implementation.
//
// The seed draws the input data and swaps one adjacent pair of each mix's apps
// in the offload order. Host time is dominated by the workloads layer (prepare, kernel
// bodies, verify) and the flash program path of InstallData; GC never runs on
// a fresh device, so the FTL/GC counters stay near zero here.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "metrics_util.h"
#include "spans.h"
#include "src/core/flashabacus.h"
#include "src/host/simd_system.h"
#include "src/sim/rng.h"
#include "src/workloads/workload.h"

namespace fabbench {
namespace {

using namespace fabacus;

// MX1, MX10 and MX11 together cover 13 of the 14 PolyBench apps, both
// compute- and data-intensive.
constexpr int kMixes[] = {1, 10, 11};
constexpr int kInstancesPerApp = 4;
constexpr double kScale = 1.0 / 16.0;

class PaperMix : public BenchWorkload {
 public:
  explicit PaperMix(const Options& opt) : opt_(opt) {
    // Kernel-body spans without touching the simulator: a copy of each spec
    // whose microblock bodies open a span around the original body.
    for (const Workload* w : WorkloadRegistry::Get().polybench()) {
      auto spec = std::make_unique<KernelSpec>(w->spec());
      for (MicroblockSpec& m : spec->microblocks) {
        if (m.body) {
          m.body = [body = m.body](AppInstance& inst, std::size_t begin, std::size_t end) {
            ScopedSpan span("workloads.kernel");
            body(inst, begin, end);
          };
        }
      }
      traced_specs_[w] = std::move(spec);
    }
  }

  double TimeSetup() override {
    const auto start = std::chrono::steady_clock::now();
    auto sim = std::make_unique<Simulator>();
    auto dev = std::make_unique<FlashAbacus>(sim.get(), DeviceConfig());
    auto simd_sim = std::make_unique<Simulator>();
    auto simd = std::make_unique<SimdSystem>(simd_sim.get(), SimdConfigFor());
    return SecondsSince(start);
  }

  UnitResult RunUnit() override {
    UnitResult u;
    Totals fab;
    Totals simd;
    std::vector<double> latencies_ms;
    for (const int mix : kMixes) {
      std::vector<const Workload*> apps = WorkloadRegistry::Get().Mix(mix);
      Rng order(opt_.seed * 1000003ULL + static_cast<std::uint64_t>(mix));
      // One seeded swap of adjacent apps: the seed moves the schedule without
      // leaving the mix's Table-2 order far behind (a full shuffle moves the
      // median kernel latency by 20% between seeds).
      const std::size_t swap_at = order.NextBelow(apps.size() - 1);
      std::swap(apps[swap_at], apps[swap_at + 1]);
      const std::uint64_t data_seed = opt_.seed ^ (static_cast<std::uint64_t>(mix) << 32);
      RunIntraO3(apps, data_seed, mix, &u, &fab, &latencies_ms);
      RunSimd(apps, data_seed, mix, &u, &simd);
    }
    const double fab_mb_s = fab.mb / fab.makespan_s;
    const double simd_mb_s = simd.mb / simd.makespan_s;
    const double n_runs = static_cast<double>(std::size(kMixes));
    std::map<std::string, double>& s = u.sim;
    s["throughput_mb_s"] = fab_mb_s;
    s["energy_j"] = fab.energy.total_j;
    s["speedup_vs_simd"] = fab_mb_s / simd_mb_s;
    s["energy_vs_simd"] = fab.energy.total_j / simd.energy.total_j;
    AddLatency(&latencies_ms, &s);
    s["sim.events"] = static_cast<double>(fab.events + simd.events);
    s["core.lwp_utilization"] = fab.lwp_utilization / n_runs;
    s["energy.total_j"] = fab.energy.total_j;
    s["energy.data_movement_j"] = fab.energy.data_movement_j;
    s["energy.computation_j"] = fab.energy.computation_j;
    s["energy.storage_access_j"] = fab.energy.storage_access_j;
    s["host.simd_throughput_mb_s"] = simd_mb_s;
    s["host.simd_energy_j"] = simd.energy.total_j;
    for (const auto& [name, value] : fab.counters) {
      s[name] = value;
    }
    for (const auto& [name, value] : simd.counters) {
      s[name] = value;
    }
    // Device-lifetime ratios, averaged over the three device runs.
    for (const char* name :
         {"flashvisor.core_utilization", "dram.utilization", "noc.tier1.utilization",
          "flash.tag_wait_ratio", "flash.bus_utilization", "ssd.utilization"}) {
      s[name] /= n_runs;
    }
    u.sim_s = fab.sim_s + simd.sim_s;
    return u;
  }

 private:
  struct Totals {
    double mb = 0.0;
    double makespan_s = 0.0;
    double sim_s = 0.0;
    double lwp_utilization = 0.0;
    std::uint64_t events = 0;
    EnergyBreakdown energy;
    std::map<std::string, double> counters;

    void AddRun(const RunReport& r, const Simulator& sim) {
      mb += r.input_bytes / (1024.0 * 1024.0);
      makespan_s += TicksToSeconds(r.makespan);
      sim_s += TicksToSeconds(sim.Now());
      lwp_utilization += r.worker_utilization;
      events += sim.events_executed();
      const EnergyBreakdown e = r.EnergySummary();
      energy.total_j += e.total_j;
      energy.data_movement_j += e.data_movement_j;
      energy.computation_j += e.computation_j;
      energy.storage_access_j += e.storage_access_j;
    }
  };

  static FlashAbacusConfig DeviceConfig() {
    FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
    cfg.model_scale = kScale;
    return cfg;
  }

  static SimdConfig SimdConfigFor() {
    SimdConfig cfg;
    cfg.model_scale = kScale;
    return cfg;
  }

  const KernelSpec* SpecFor(const Workload* w) const {
    return ActiveTracer() != nullptr ? traced_specs_.at(w).get() : &w->spec();
  }

  // Instances of every app in `apps`, inputs drawn from one stream seeded by
  // `data_seed`, so the IntraO3 and SIMD runs of a mix see identical data.
  std::vector<std::unique_ptr<AppInstance>> Prepare(const std::vector<const Workload*>& apps,
                                                    std::uint64_t data_seed) const {
    std::vector<std::unique_ptr<AppInstance>> insts;
    Rng rng(data_seed);
    for (std::size_t a = 0; a < apps.size(); ++a) {
      for (int i = 0; i < kInstancesPerApp; ++i) {
        ScopedSpan span("workloads.prepare");
        insts.push_back(
            std::make_unique<AppInstance>(static_cast<int>(a), i, SpecFor(apps[a]), kScale));
        apps[a]->Prepare(*insts.back(), rng);
      }
    }
    return insts;
  }

  static void VerifyAll(const std::vector<const Workload*>& apps,
                        const std::vector<std::unique_ptr<AppInstance>>& insts,
                        const std::string& label, UnitResult* u) {
    for (const auto& inst : insts) {
      ScopedSpan span("workloads.verify");
      const Workload* w = apps[static_cast<std::size_t>(inst->app_id())];
      u->Check(w->Verify(*inst), label + " " + w->name() + "#" +
                                     std::to_string(inst->instance_id()) + " failed Verify");
    }
  }

  void RunIntraO3(const std::vector<const Workload*>& apps, std::uint64_t data_seed, int mix,
                  UnitResult* u, Totals* t, std::vector<double>* latencies_ms) const {
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<FlashAbacus> dev;
    {
      ScopedSpan span("core.setup");
      sim = std::make_unique<Simulator>();
      dev = std::make_unique<FlashAbacus>(sim.get(), DeviceConfig());
    }
    std::vector<std::unique_ptr<AppInstance>> insts = Prepare(apps, data_seed);
    std::vector<AppInstance*> raw;
    for (const auto& inst : insts) {
      raw.push_back(inst.get());
    }
    {
      ScopedSpan span("core.install");
      for (AppInstance* inst : raw) {
        dev->InstallData(inst, [](Tick) {});
      }
      sim->Run();
    }
    RunReport report;
    bool done = false;
    {
      ScopedSpan span("core.run");
      dev->Run(raw, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
        report = std::move(r);
        done = true;
      });
      sim->Run();
    }
    const std::string label = "MX" + std::to_string(mix) + " IntraO3";
    u->Check(done, label + " run did not complete");
    if (opt_.inject == "kernel_output" && !insts.empty()) {
      CorruptFirstOutput(insts.front().get());
    }
    VerifyAll(apps, insts, label, u);
    {
      ScopedSpan span("core.report");
      u->Check(!report.ToJson().empty(), label + " produced an empty report");
    }
    t->AddRun(report, *sim);
    for (const auto& inst : insts) {
      latencies_ms->push_back(TicksToMs(inst->complete_time - inst->submit_time));
    }
    const MetricsSnapshot& m = report.metrics;
    AddTo(&t->counters, "core.screens_executed", SumMatching(m, "lwp/", "/screens_executed"));
    AddTo(&t->counters, "flashvisor.core_utilization", m.Value("flashvisor/core_utilization"));
    AddTo(&t->counters, "flashvisor.reads_served", m.Value("flashvisor/reads_served"));
    AddTo(&t->counters, "flashvisor.writes_served", m.Value("flashvisor/writes_served"));
    AddTo(&t->counters, "flashvisor.foreground_reclaims",
          m.Value("flashvisor/foreground_reclaims"));
    AddTo(&t->counters, "storengine.gc_passes", m.Value("storengine/gc_passes"));
    AddTo(&t->counters, "storengine.groups_migrated", m.Value("storengine/groups_migrated"));
    AddFlashCounters(m, static_cast<double>(sim->Now()), dev->config().nand.channels,
                     &t->counters);
    AddTo(&t->counters, "dram.utilization", m.Value("dram/utilization"));
    AddTo(&t->counters, "noc.tier1.utilization", m.Value("noc/tier1/utilization"));
    {
      ScopedSpan span("core.teardown");
      dev.reset();
      sim.reset();
    }
    ScopedSpan span("workloads.teardown");
    insts.clear();
  }

  void RunSimd(const std::vector<const Workload*>& apps, std::uint64_t data_seed, int mix,
               UnitResult* u, Totals* t) const {
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<SimdSystem> simd;
    {
      ScopedSpan span("host.setup");
      sim = std::make_unique<Simulator>();
      simd = std::make_unique<SimdSystem>(sim.get(), SimdConfigFor());
    }
    std::vector<std::unique_ptr<AppInstance>> insts = Prepare(apps, data_seed);
    std::vector<AppInstance*> raw;
    {
      ScopedSpan span("host.install");
      for (const auto& inst : insts) {
        raw.push_back(inst.get());
        simd->InstallData(inst.get());
      }
    }
    RunReport report;
    bool done = false;
    {
      ScopedSpan span("host.simd_run");
      simd->Run(raw, [&](RunReport r) {
        report = std::move(r);
        done = true;
      });
      sim->Run();
    }
    const std::string label = "MX" + std::to_string(mix) + " SIMD";
    u->Check(done, label + " run did not complete");
    VerifyAll(apps, insts, label, u);
    t->AddRun(report, *sim);
    AddTo(&t->counters, "ssd.utilization",
          report.metrics.Value("ssd/busy_ns") / static_cast<double>(sim->Now()));
    AddTo(&t->counters, "pcie.transfers", report.metrics.Value("pcie/transfers"));
    {
      ScopedSpan span("host.teardown");
      simd.reset();
      sim.reset();
    }
    ScopedSpan span("workloads.teardown");
    insts.clear();
  }

  // Perturbs the first element of the instance's first output section, the
  // way a wrong kernel result would.
  static void CorruptFirstOutput(AppInstance* inst) {
    for (const DataSectionSpec& s : inst->spec().sections) {
      if (s.dir == DataSectionSpec::Dir::kOut && s.buffer_index >= 0) {
        std::vector<float>& out = inst->buffer(s.buffer_index);
        if (!out.empty()) {
          out[0] = std::fabs(out[0]) * 2.0f + 1.0f;
          return;
        }
      }
    }
  }

  Options opt_;
  std::map<const Workload*, std::unique_ptr<KernelSpec>> traced_specs_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakePaperMix(const Options& opt) {
  return std::make_unique<PaperMix>(opt);
}

}  // namespace fabbench

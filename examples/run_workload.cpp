// CLI runner: execute any registered workload on any system/scheduler.
//
//   $ ./build/examples/run_workload                      # list workloads
//   $ ./build/examples/run_workload ATAX IntraO3 6       # 6 instances
//   $ ./build/examples/run_workload bfs SIMD 4
//   $ ./build/examples/run_workload MX3 InterDy 2        # mixes: 2 per app
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/host/simd_system.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workloads/workload.h"

namespace {

using namespace fabacus;

void PrintUsage() {
  std::printf("usage: run_workload <workload|MXn> <SIMD|InterSt|InterDy|IntraIo|IntraO3> "
              "[instances=6]\n\nworkloads:\n ");
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    std::printf(" %s", wl->name().c_str());
  }
  std::printf("\n  MX1..MX%d (heterogeneous mixes)\n", WorkloadRegistry::kNumMixes);
}

void Report(const RunReport& r, bool verified) {
  std::printf("system:      %s\n", r.system.c_str());
  std::printf("makespan:    %.2f ms\n", TicksToMs(r.makespan));
  std::printf("throughput:  %.1f MB/s\n", r.throughput_mb_s);
  const HistogramSummary lat = r.KernelLatencyMs();
  std::printf("latency:     avg %.2f ms, max %.2f ms, min %.2f ms\n", lat.mean, lat.max,
              lat.min);
  std::printf("utilization: %.1f%%\n", r.worker_utilization * 100.0);
  std::printf("energy:      %.3f J  (move %.3f / compute %.3f / storage %.3f)\n",
              r.EnergySummary().total_j, r.EnergySummary().data_movement_j, r.EnergySummary().computation_j,
              r.EnergySummary().storage_access_j);
  std::printf("verified:    %s\n", verified ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    PrintUsage();
    return argc == 1 ? 0 : 1;
  }
  const std::string target = argv[1];
  const std::string system = argv[2];
  const int per_app = argc > 3 ? std::atoi(argv[3]) : 6;

  std::vector<const Workload*> apps;
  if (target.rfind("MX", 0) == 0) {
    const int m = std::atoi(target.c_str() + 2);
    if (m < 1 || m > WorkloadRegistry::kNumMixes) {
      std::fprintf(stderr, "unknown mix %s\n", target.c_str());
      return 1;
    }
    apps = WorkloadRegistry::Get().Mix(m);
  } else {
    const Workload* wl = WorkloadRegistry::Get().Find(target);
    if (wl == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", target.c_str());
      PrintUsage();
      return 1;
    }
    apps.push_back(wl);
  }

  Simulator sim;
  Rng rng(42);
  std::vector<std::unique_ptr<AppInstance>> owned;
  std::vector<AppInstance*> instances;
  const double scale = 1.0 / 16.0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (int i = 0; i < per_app; ++i) {
      owned.push_back(
          std::make_unique<AppInstance>(static_cast<int>(a), i, &apps[a]->spec(), scale));
      apps[a]->Prepare(*owned.back(), rng);
      instances.push_back(owned.back().get());
    }
  }

  RunReport result;
  bool done = false;
  if (system == "SIMD") {
    SimdConfig cfg;
    cfg.model_scale = scale;
    SimdSystem simd(&sim, cfg);
    for (AppInstance* inst : instances) {
      simd.InstallData(inst);
    }
    simd.Run(instances, [&](RunReport r) {
      result = std::move(r);
      done = true;
    });
    sim.Run();
  } else {
    SchedulerKind kind;
    if (system == "InterSt") {
      kind = SchedulerKind::kInterStatic;
    } else if (system == "InterDy") {
      kind = SchedulerKind::kInterDynamic;
    } else if (system == "IntraIo") {
      kind = SchedulerKind::kIntraInOrder;
    } else if (system == "IntraO3") {
      kind = SchedulerKind::kIntraOutOfOrder;
    } else {
      std::fprintf(stderr, "unknown system %s\n", system.c_str());
      PrintUsage();
      return 1;
    }
    FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
    cfg.model_scale = scale;
    FlashAbacus dev(&sim, cfg);
    for (AppInstance* inst : instances) {
      dev.InstallData(inst, [](Tick) {});
    }
    sim.Run();
    dev.Run(instances, kind, [&](RunReport r) {
      result = std::move(r);
      done = true;
    });
    sim.Run();
  }
  if (!done) {
    std::fprintf(stderr, "run did not complete\n");
    return 1;
  }
  bool verified = true;
  for (const auto& inst : owned) {
    verified =
        verified && apps[static_cast<std::size_t>(inst->app_id())]->Verify(*inst);
  }
  Report(result, verified);
  return verified ? 0 : 1;
}

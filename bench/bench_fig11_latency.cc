// Figure 11: per-kernel latency (max / avg / min across instances),
// normalized to SIMD's average, for homogeneous (a) and heterogeneous (b)
// workloads. Paper anchors: on data-intensive homogeneous workloads SIMD's
// avg/max/min run 39%/87%/113% longer than FlashAbacus; InterDy cuts
// InterSt's average by ~57%; IntraO3 beats InterDy by 10% (avg) and 19%
// (max) on heterogeneous workloads.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace fabacus {
namespace {

void PrintLatencyRow(BenchJson* json, const std::string& label,
                     const std::vector<BenchRun>& runs) {
  const double simd_avg = runs[0].result.KernelLatencyMs().mean;
  std::vector<std::string> row{label};
  for (const BenchRun& r : runs) {
    json->AddRun(label, r);
    const HistogramSummary h = r.result.KernelLatencyMs();
    row.push_back(Fmt(h.max / simd_avg, 2) + "/" + Fmt(h.mean / simd_avg, 2) + "/" +
                  Fmt(h.min / simd_avg, 2));
  }
  PrintRow(row, 18);
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  BenchJson json("bench_fig11_latency");

  // Enqueue both figure grids up front so the whole bench runs as one sweep.
  const std::vector<const Workload*> kernels = WorkloadRegistry::Get().polybench();
  BenchSweep sweep;
  std::vector<std::size_t> homo_first;
  for (const Workload* wl : kernels) {
    homo_first.push_back(sweep.AddAllSystems({wl}, 6));
  }
  std::vector<std::size_t> mix_first;
  for (int m = 1; m <= WorkloadRegistry::kNumMixes; ++m) {
    mix_first.push_back(sweep.AddAllSystems(WorkloadRegistry::Get().Mix(m), 4));
  }
  sweep.Run();

  PrintHeader("Fig 11a: latency max/avg/min normalized to SIMD avg, homogeneous");
  PrintRow({"workload", "SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"}, 18);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    PrintLatencyRow(&json, kernels[k]->name(), sweep.TakeSystems(homo_first[k]));
  }

  PrintHeader("Fig 11b: latency max/avg/min normalized to SIMD avg, heterogeneous");
  PrintRow({"mix", "SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"}, 18);
  for (int m = 1; m <= WorkloadRegistry::kNumMixes; ++m) {
    PrintLatencyRow(&json, "MX" + std::to_string(m),
                    sweep.TakeSystems(mix_first[static_cast<std::size_t>(m - 1)]));
  }
  std::printf(
      "\npaper anchors: SIMD avg/max/min 39%%/87%%/113%% above FlashAbacus on data-intensive;"
      "\nIntraO3 beats InterDy by 10%% (avg) / 19%% (max) on heterogeneous workloads\n");
  return 0;
}

// Figures 10-14 and 16: the paper's evaluation of the five accelerated
// systems (SIMD, InterSt, IntraIo, InterDy, IntraO3), read off one sweep.
// Every workload set runs once on each system — 6 instances of each
// PolyBench kernel (homogeneous), MX1-MX14 at 4 instances per app
// (heterogeneous, 24 instances) and 6 instances of each graph/bigdata app:
// 33 sets x 5 systems = 165 runs. Paper anchors:
//  Fig 10  throughput. IntraO3 outperforms SIMD by 127% on average (144% on
//          data-intensive homogeneous workloads); on heterogeneous workloads
//          InterDy beats InterSt by 177% and IntraO3 beats InterDy by 15%.
//  Fig 11  per-kernel latency max/avg/min normalized to SIMD's average. On
//          data-intensive homogeneous workloads SIMD's avg/max/min run
//          39%/87%/113% longer than FlashAbacus; InterDy cuts InterSt's
//          average by ~57%; IntraO3 beats InterDy by 10% (avg) and 19% (max)
//          on heterogeneous workloads.
//  Fig 12  completion-time CDFs of ATAX x6 and MX1 x24 (both grid entries).
//          IntraIo/IntraO3 finish the first kernel earliest, InterDy
//          completes all six nearly together, SIMD trails on MX1.
//  Fig 13  energy decomposition normalized to SIMD's total. IntraO3 consumes
//          78.4% less energy than SIMD; InterSt consumes ~28% MORE on
//          GEMM/2MM/SYR2K because Flashvisor and Storengine stay busy for its
//          whole (long) execution.
//  Fig 14  LWP utilization. InterDy keeps processors ~98% busy on
//          homogeneous workloads; IntraO3 reaches >94%, ~15% above InterDy,
//          on heterogeneous ones.
//  Fig 16  graph/bigdata throughput and energy. IntraIo/InterDy/IntraO3
//          average 2.1x/3.4x/3.4x SIMD's throughput; InterSt/IntraIo/InterDy/
//          IntraO3 save 74%/83%/88%/88% of SIMD's energy.
// Exits 1 when any run fails verification or never completes.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace fabacus {
namespace {

// One workload set's five runs, paper order: SIMD, InterSt, IntraIo, InterDy,
// IntraO3.
struct Entry {
  std::string label;
  bool compute_intensive = false;
  std::size_t first = 0;  // sweep index of the SIMD run
  std::vector<BenchRun> runs;
};

double Mbs(const Entry& e, std::size_t system) { return e.runs[system].result.throughput_mb_s; }

// Column headings: `first`, the five systems, then `extra`.
std::vector<std::string> Columns(const std::string& first, std::vector<std::string> extra = {}) {
  std::vector<std::string> cols{first, "SIMD", "InterSt", "IntraIo", "InterDy", "IntraO3"};
  cols.insert(cols.end(), extra.begin(), extra.end());
  return cols;
}

// One Fig 10a/10b/16a row: each system's MB/s, the IntraO3/SIMD ratio when
// `with_ratio`, and whether all five runs verified.
void PrintThroughputRow(const Entry& e, bool with_ratio) {
  std::vector<std::string> row{e.label};
  bool verified = true;
  for (const BenchRun& r : e.runs) {
    row.push_back(Fmt(r.result.throughput_mb_s));
    verified = verified && r.verified;
  }
  if (with_ratio) {
    row.push_back(Fmt(Mbs(e, 4) / Mbs(e, 0), 2) + "x");
  }
  row.push_back(verified ? "yes" : "NO");
  PrintRow(row);
}

// One Fig 13a/13b/16b row: each system's data-movement/computation/storage-
// access energy over SIMD's total. Returns each system's total over SIMD's.
std::vector<double> PrintEnergyRow(const Entry& e) {
  const double simd_total = e.runs[0].result.EnergySummary().total_j;
  std::vector<std::string> row{e.label};
  std::vector<double> totals;
  for (const BenchRun& r : e.runs) {
    const EnergyBreakdown energy = r.result.EnergySummary();
    row.push_back(Fmt(energy.data_movement_j / simd_total, 2) + "/" +
                  Fmt(energy.computation_j / simd_total, 2) + "/" +
                  Fmt(energy.storage_access_j / simd_total, 2));
    totals.push_back(energy.total_j / simd_total);
  }
  PrintRow(row, 18);
  return totals;
}

void PrintLatencyRow(const Entry& e) {
  const double simd_avg = e.runs[0].result.KernelLatencyMs().mean;
  std::vector<std::string> row{e.label};
  for (const BenchRun& r : e.runs) {
    const HistogramSummary h = r.result.KernelLatencyMs();
    row.push_back(Fmt(h.max / simd_avg, 2) + "/" + Fmt(h.mean / simd_avg, 2) + "/" +
                  Fmt(h.min / simd_avg, 2));
  }
  PrintRow(row, 18);
}

void PrintUtilRow(const Entry& e) {
  std::vector<std::string> row{e.label};
  for (const BenchRun& r : e.runs) {
    row.push_back(Fmt(r.result.worker_utilization * 100.0, 1));
  }
  PrintRow(row);
}

// Sorted completion times per system, one row per completed kernel ("-"
// where a run completed fewer kernels than SIMD).
void PrintCdf(const std::string& title, const Entry& e) {
  PrintHeader(title);
  PrintRow({"#done", "SIMD(s)", "InterSt(s)", "IntraIo(s)", "InterDy(s)", "IntraO3(s)"});
  std::vector<std::vector<Tick>> sorted;
  for (const BenchRun& r : e.runs) {
    sorted.push_back(r.result.completion_times);
    std::sort(sorted.back().begin(), sorted.back().end());
  }
  for (std::size_t k = 0; k < sorted[0].size(); ++k) {
    std::vector<std::string> row{Fmt(static_cast<double>(k + 1), 0)};
    for (const std::vector<Tick>& times : sorted) {
      row.push_back(k < times.size() ? Fmt(TicksToSeconds(times[k]), 3) : "-");
    }
    PrintRow(row);
  }
}

void Fig10(const std::vector<Entry>& homo, const std::vector<Entry>& mixes) {
  PrintHeader("Fig 10a: throughput, homogeneous workloads (MB/s; 6 instances each)");
  PrintRow(Columns("workload", {"O3/SIMD", "verified"}));
  double ratio_sum = 0.0;
  double data_ratio_sum = 0.0;
  int data_count = 0;
  for (const Entry& e : homo) {
    PrintThroughputRow(e, true);
    const double ratio = Mbs(e, 4) / Mbs(e, 0);
    ratio_sum += ratio;
    if (!e.compute_intensive) {
      data_ratio_sum += ratio;
      ++data_count;
    }
  }
  std::printf("\nIntraO3 vs SIMD, mean speedup: %.2fx (paper: 127%% improvement overall)\n",
              ratio_sum / static_cast<double>(homo.size()));
  std::printf("IntraO3 vs SIMD, data-intensive mean: %.2fx (paper: 144%% improvement)\n",
              data_ratio_sum / data_count);

  PrintHeader("Fig 10b: throughput, heterogeneous workloads (MB/s; 24 instances, 4/app)");
  PrintRow(Columns("mix", {"O3/SIMD", "verified"}));
  double dy_vs_st = 0.0;
  double o3_vs_dy = 0.0;
  for (const Entry& e : mixes) {
    PrintThroughputRow(e, true);
    dy_vs_st += Mbs(e, 3) / Mbs(e, 1);
    o3_vs_dy += Mbs(e, 4) / Mbs(e, 3);
  }
  const double n = static_cast<double>(mixes.size());
  std::printf("\nInterDy vs InterSt, mean: %.2fx (paper: 177%% better)\n", dy_vs_st / n);
  std::printf("IntraO3 vs InterDy, mean: %.2fx (paper: 15%% better)\n", o3_vs_dy / n);
}

void Fig11(const std::vector<Entry>& homo, const std::vector<Entry>& mixes) {
  PrintHeader("Fig 11a: latency max/avg/min normalized to SIMD avg, homogeneous");
  PrintRow(Columns("workload"), 18);
  for (const Entry& e : homo) {
    PrintLatencyRow(e);
  }
  PrintHeader("Fig 11b: latency max/avg/min normalized to SIMD avg, heterogeneous");
  PrintRow(Columns("mix"), 18);
  for (const Entry& e : mixes) {
    PrintLatencyRow(e);
  }
  std::printf(
      "\npaper anchors: SIMD avg/max/min 39%%/87%%/113%% above FlashAbacus on data-intensive;"
      "\nIntraO3 beats InterDy by 10%% (avg) / 19%% (max) on heterogeneous workloads\n");
}

void Fig12(const Entry& atax, const Entry& mx1) {
  PrintCdf("Fig 12a: completion-time CDF, ATAX x6 (homogeneous)", atax);
  PrintCdf("Fig 12b: completion-time CDF, MX1 x24 (heterogeneous)", mx1);
  std::printf(
      "\npaper anchors: InterDy completes the first ATAX kernel later than IntraIo/IntraO3;"
      "\nIntraO3 outperforms SIMD by ~42%% on MX1's kernels overall\n");
}

void Fig13(const std::vector<Entry>& homo, const std::vector<Entry>& mixes) {
  double o3_ratio_sum = 0.0;
  PrintHeader("Fig 13a: energy move/compute/storage normalized to SIMD total, homogeneous");
  PrintRow(Columns("workload"), 18);
  for (const Entry& e : homo) {
    o3_ratio_sum += PrintEnergyRow(e)[4];
  }
  PrintHeader("Fig 13b: energy move/compute/storage normalized to SIMD total, heterogeneous");
  PrintRow(Columns("mix"), 18);
  for (const Entry& e : mixes) {
    o3_ratio_sum += PrintEnergyRow(e)[4];
  }
  const double n = static_cast<double>(homo.size() + mixes.size());
  std::printf("\nIntraO3 total energy vs SIMD, mean across all workloads: %.1f%% less "
              "(paper: 78.4%% less)\n",
              (1.0 - o3_ratio_sum / n) * 100.0);
}

void Fig14(const std::vector<Entry>& homo, const std::vector<Entry>& mixes) {
  PrintHeader("Fig 14a: LWP utilization (%), homogeneous");
  PrintRow(Columns("workload"));
  for (const Entry& e : homo) {
    PrintUtilRow(e);
  }
  PrintHeader("Fig 14b: LWP utilization (%), heterogeneous");
  PrintRow(Columns("mix"));
  for (const Entry& e : mixes) {
    PrintUtilRow(e);
  }
  std::printf("\npaper anchors: InterDy ~98%% on homogeneous; IntraO3 >94%% and ~15%% above "
              "InterDy on heterogeneous\n");
}

void Fig16(const std::vector<Entry>& graph) {
  PrintHeader("Fig 16a: throughput (MB/s), graph/bigdata workloads, 6 instances each");
  PrintRow(Columns("app", {"verified"}));
  double gains[3] = {0, 0, 0};
  for (const Entry& e : graph) {
    PrintThroughputRow(e, false);
    for (std::size_t s = 0; s < 3; ++s) {
      gains[s] += Mbs(e, s + 2) / Mbs(e, 0);
    }
  }
  const double n = static_cast<double>(graph.size());
  std::printf("\nmean speedup vs SIMD: IntraIo %.1fx, InterDy %.1fx, IntraO3 %.1fx "
              "(paper: 2.1x / 3.4x / 3.4x)\n",
              gains[0] / n, gains[1] / n, gains[2] / n);

  PrintHeader("Fig 16b: energy move/compute/storage normalized to SIMD total");
  PrintRow(Columns("app"), 18);
  double saved[4] = {0, 0, 0, 0};
  for (const Entry& e : graph) {
    const std::vector<double> totals = PrintEnergyRow(e);
    for (std::size_t s = 0; s < 4; ++s) {
      saved[s] += 1.0 - totals[s + 1];
    }
  }
  std::printf("\nmean energy saved vs SIMD: InterSt %.0f%%, IntraIo %.0f%%, InterDy %.0f%%, "
              "IntraO3 %.0f%% (paper: 74%% / 83%% / 88%% / 88%%)\n",
              100 * saved[0] / n, 100 * saved[1] / n, 100 * saved[2] / n, 100 * saved[3] / n);
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  const WorkloadRegistry& registry = WorkloadRegistry::Get();
  BenchSweep sweep;
  std::vector<Entry> homo;
  std::vector<Entry> mixes;
  std::vector<Entry> graph;
  const auto add = [&sweep](std::vector<Entry>* set, std::string label, bool compute_intensive,
                            std::vector<const Workload*> apps, int instances_per_app) {
    const std::size_t first = sweep.AddAllSystems(std::move(apps), instances_per_app);
    set->push_back({std::move(label), compute_intensive, first, {}});
  };
  for (const Workload* wl : registry.polybench()) {
    add(&homo, wl->name(), wl->compute_intensive(), {wl}, 6);
  }
  for (int m = 1; m <= WorkloadRegistry::kNumMixes; ++m) {
    add(&mixes, "MX" + std::to_string(m), false, registry.Mix(m), 4);
  }
  for (const Workload* wl : registry.graph()) {
    add(&graph, wl->name(), wl->compute_intensive(), {wl}, 6);
  }
  sweep.Run();

  BenchJson json("bench_five_systems");
  int failed = 0;
  for (std::vector<Entry>* set : {&homo, &mixes, &graph}) {
    for (Entry& e : *set) {
      e.runs = sweep.TakeSystems(e.first);
      for (const BenchRun& r : e.runs) {
        json.AddRun(e.label, r);
        failed += r.verified ? 0 : 1;
      }
    }
  }

  Fig10(homo, mixes);
  Fig11(homo, mixes);
  Fig12(*std::find_if(homo.begin(), homo.end(), [](const Entry& e) { return e.label == "ATAX"; }),
        mixes[0]);
  Fig13(homo, mixes);
  Fig14(homo, mixes);
  Fig16(graph);
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %d of %zu runs did not verify or never completed\n", failed,
                 sweep.size());
    return 1;
  }
  return 0;
}

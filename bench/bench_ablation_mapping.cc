// Ablation: mapping-table residency (paper §4.3: the full page-group map is
// kept in the 4 MB scratchpad — "the time spent to lookup and update the
// mapping information should not be an overhead").
//
// Two parts:
//  1. Replay a real kernel's group-access trace through a DFTL-style
//     demand-cached map (src/core/mapping_cache) to *measure* hit ratios and
//     the resulting mean translation cost for each residency option.
//  2. Re-run ATAX end to end with the measured per-group translation costs
//     plugged into Flashvisor, showing the throughput impact.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/mapping_cache.h"

namespace fabacus {
namespace {

// Group-access traces reconstructed from the section layout. `streams` is
// the number of concurrently-executing kernels: their per-group requests
// interleave at Flashvisor, which is what a translation cache actually sees
// under multi-kernel execution.
std::vector<std::uint64_t> BuildTrace(int streams, std::uint64_t groups_per_stream) {
  std::vector<std::uint64_t> trace;
  for (std::uint64_t g = 0; g < groups_per_stream; ++g) {
    for (int s = 0; s < streams; ++s) {
      // Spread streams across the logical space (distinct translation pages).
      trace.push_back(static_cast<std::uint64_t>(s) * 4096 + g);
    }
  }
  return trace;
}

struct Residency {
  const char* name;
  MappingCacheConfig cache;
  bool full_table;  // scratchpad-resident: every access is a hit
};

Tick MeasuredMeanCost(const Residency& r, const std::vector<std::uint64_t>& trace,
                      double* hit_ratio) {
  if (r.full_table) {
    *hit_ratio = 1.0;
    return r.cache.hit_cost;
  }
  MappingCache cache(1 << 20, r.cache);
  Tick total = 0;
  for (std::uint64_t g : trace) {
    Tick cost = 0;
    cache.Lookup(g, &cost);
    total += cost;
  }
  *hit_ratio = cache.HitRatio();
  return total / trace.size();
}

BenchRun RunAtaxWithTranslateCost(Tick per_group) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.flashvisor.per_group_translate = per_group;
  return RunFlashAbacusSystem({WorkloadRegistry::Get().Find("ATAX")}, 6,
                              SchedulerKind::kIntraOutOfOrder, cfg);
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  // One kernel streaming alone vs 24 concurrent kernels (Fig 10b's setup).
  const std::vector<std::uint64_t> solo = BuildTrace(1, 3840);
  const std::vector<std::uint64_t> multi = BuildTrace(24, 640);

  Residency options[3];
  options[0] = {"scratchpad-resident (paper)", MappingCacheConfig{}, true};
  // Full table in DDR3L, small SRAM cache of translation pages.
  options[1] = {"DDR3L-resident + SRAM cache", MappingCacheConfig{}, false};
  options[1].cache.miss_cost = 2 * kUs;  // DDR3L fetch, not flash
  options[1].cache.writeback_cost = 2 * kUs;
  options[1].cache.cache_pages = 16;
  // DFTL: translation pages on flash.
  options[2] = {"flash-resident (DFTL-like)", MappingCacheConfig{}, false};
  options[2].cache.cache_pages = 16;

  PrintHeader("Ablation: mapping-table residency (trace-measured translation costs)");
  PrintRow({"design", "hit% solo", "hit% 24-kernel", "cost/group", "ATAX IntraO3 MB/s"}, 26);
  // Trace replay is cheap and serial; the end-to-end ATAX re-runs are the
  // expensive part, so those fan out across the sweep pool.
  double hit_solo[3];
  double hit_multi[3];
  Tick mean_cost[3];
  std::vector<std::function<BenchRun()>> jobs;
  for (int i = 0; i < 3; ++i) {
    MeasuredMeanCost(options[i], solo, &hit_solo[i]);
    mean_cost[i] = MeasuredMeanCost(options[i], multi, &hit_multi[i]);
    const Tick cost = mean_cost[i];
    jobs.emplace_back([cost] { return RunAtaxWithTranslateCost(cost); });
  }
  const std::vector<BenchRun> runs = SweepRunner().Run(std::move(jobs));
  int failed = 0;
  for (int i = 0; i < 3; ++i) {
    failed += runs[i].verified ? 0 : 1;
    PrintRow({options[i].name, Fmt(hit_solo[i] * 100.0, 1), Fmt(hit_multi[i] * 100.0, 1),
              Fmt(static_cast<double>(mean_cost[i]) / 1000.0, 2) + " us",
              Fmt(runs[i].result.throughput_mb_s)},
             26);
  }
  BenchJson json("bench_ablation_mapping");
  for (int i = 0; i < 3; ++i) {
    json.AddScalarRow(options[i].name, "IntraO3",
                      {{"hit_rate_solo", hit_solo[i]},
                       {"hit_rate_24kernel", hit_multi[i]},
                       {"mean_cost_us", static_cast<double>(mean_cost[i]) / 1000.0},
                       {"atax_throughput_mb_s", runs[i].result.throughput_mb_s}});
  }
  std::printf(
      "\nA lone streaming kernel keeps a DFTL cache warm, but 24 concurrent kernels\n"
      "cycle more translation pages than the cache holds and every miss serializes on\n"
      "the single Flashvisor core; the scratchpad-resident full table (2 MB for 32 GB)\n"
      "keeps translation constant-time off the data path (paper §4.3).\n");
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %d of %zu ATAX runs did not verify or never completed\n",
                 failed, runs.size());
    return 1;
  }
  return 0;
}

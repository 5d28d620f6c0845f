// Ablation: fault injection and the recovery ladder. The same workload mix
// runs on progressively less healthy devices — pristine flash, mid-life flash
// with wear-scaled raw bit errors, end-of-life flash that also fails
// programs, and a device that loses an entire die mid-run. Each step shows
// what the recovery machinery (read-retry ladder, program re-allocation, host
// retries, patrol scrub) costs in makespan versus what it absorbs: every
// configuration still completes and verifies.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace fabacus {
namespace {

BenchRun RunWithFaults(const FaultConfig& fault) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.model_scale = kBenchScale;
  cfg.nand.fault = fault;
  return RunFlashAbacusSystem(
      {WorkloadRegistry::Get().Find("ATAX"), WorkloadRegistry::Get().Find("GESUM")}, 2,
      SchedulerKind::kIntraOutOfOrder, cfg);
}

double Metric(const BenchRun& run, const std::string& name) {
  return run.result.metrics.Has(name) ? run.result.metrics.Value(name) : 0.0;
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  PrintHeader("Ablation: device health vs recovery-ladder work (IntraO3, ATAX+GESUM x2)");

  FaultConfig pristine;

  FaultConfig midlife;
  midlife.read_error_base = 0.02;
  midlife.read_error_wear_slope = 0.5;

  FaultConfig endoflife;
  endoflife.read_error_base = 0.2;
  endoflife.read_error_wear_slope = 0.5;
  endoflife.program_failure_rate = 0.02;

  FaultConfig diekill;
  diekill.read_error_base = 0.02;
  diekill.plan.push_back({FaultPlanEntry::Kind::kKillDie, 2 * kMs, 1, 2});

  struct Step {
    const char* label;
    FaultConfig fault;
  };
  const Step steps[] = {
      {"pristine", pristine},
      {"mid-life", midlife},
      {"end-of-life", endoflife},
      {"die-kill@2ms", diekill},
  };

  PrintRow({"device", "makespan(ms)", "retries", "uncorr", "prog-fail", "host-retry",
            "verified"},
           13);
  std::vector<std::function<BenchRun()>> jobs;
  for (const Step& s : steps) {
    jobs.emplace_back([&s] { return RunWithFaults(s.fault); });
  }
  const std::vector<BenchRun> runs = SweepRunner().Run(std::move(jobs));
  BenchJson json("bench_ablation_faults");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Step& s = steps[i];
    const BenchRun& run = runs[i];
    PrintRow({s.label, Fmt(TicksToMs(run.result.makespan), 2),
              Fmt(Metric(run, "flash/read_retries"), 0),
              Fmt(Metric(run, "flash/uncorrectable_reads"), 0),
              Fmt(Metric(run, "flashvisor/program_failure_reallocs"), 0),
              Fmt(Metric(run, "host/io_retries"), 0), run.verified ? "yes" : "NO"},
             13);
    json.AddScalarRow(s.label, "IntraO3",
                      {{"makespan_ms", TicksToMs(run.result.makespan)},
                       {"read_retries", Metric(run, "flash/read_retries")},
                       {"uncorrectable_reads", Metric(run, "flash/uncorrectable_reads")},
                       {"program_failure_reallocs",
                        Metric(run, "flashvisor/program_failure_reallocs")},
                       {"host_io_retries", Metric(run, "host/io_retries")},
                       {"energy_total_j", run.result.EnergySummary().total_j},
                       {"verified", run.verified ? 1.0 : 0.0}});
  }
  std::printf("\nEvery configuration completes and verifies: correctable errors cost\n"
              "retry-ladder latency, program failures cost re-allocated block groups,\n"
              "and a dead die costs degraded (but successful) striped reads.\n");
  return 0;
}

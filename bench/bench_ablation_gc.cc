// Ablation: Storengine's background garbage collection vs foreground
// (on-demand) reclamation (§4.3 "Storage management"). A write-heavy
// workload repeatedly overwrites logical ranges on a small flash geometry so
// the free pool keeps draining. With background GC the reclaim overlaps
// kernel I/O; without it every reclaim happens on demand when the pool is
// exhausted, stalling the write path.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/stats.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace fabacus {
namespace {

struct GcOutcome {
  Tick total_time = 0;
  std::uint64_t gc_passes = 0;
  std::uint64_t migrated = 0;
  std::uint64_t erases = 0;
  std::uint64_t foreground = 0;
  double read_mean_us = 0.0;
  double read_p99_us = 0.0;
  double read_max_us = 0.0;
};

GcOutcome RunOverwriteChurn(bool background_gc) {
  Simulator sim;
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.nand.blocks_per_plane = 24;
  cfg.nand.pages_per_block = 32;  // 24 block groups of 128 groups (small)
  cfg.storengine.enable_background_gc = background_gc;
  cfg.storengine.gc_interval = 2 * kMs;
  cfg.storengine.gc_high_watermark = 8;
  cfg.flashvisor.gc_low_watermark = 3;
  FlashAbacus dev(&sim, cfg);
  dev.storengine().Start();

  // Overwrite a 4-block-group-sized logical window repeatedly: every pass
  // invalidates the previous pass's groups, creating GC work.
  const std::uint64_t group_bytes = cfg.nand.GroupBytes();
  const std::uint64_t window_groups = 4 * (cfg.nand.GroupsPerBlockGroup() - 2);
  const std::uint64_t window_bytes = window_groups * group_bytes;
  const std::uint64_t base = dev.flashvisor().AllocLogicalExtent(window_bytes);
  // A separate single-group extent for the latency probe (never overwritten,
  // so probe reads never contend on the range lock — only on the device).
  const std::uint64_t probe_addr = dev.flashvisor().AllocLogicalExtent(group_bytes);
  {
    Flashvisor::IoRequest seed;
    seed.type = Flashvisor::IoRequest::Type::kWrite;
    seed.flash_addr = probe_addr;
    seed.model_bytes = group_bytes;
    seed.on_complete = [](Tick, IoStatus) {};
    dev.flashvisor().SubmitIo(std::move(seed));
  }

  // Each pass is followed by a compute window (as between kernel output
  // bursts); background GC can reclaim inside these windows, on-demand GC
  // cannot run ahead of need.
  constexpr int kPasses = 12;
  constexpr Tick kComputeGap = 60 * kMs;
  int done = 0;
  std::function<void()> write_pass = [&]() {
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = base;
    req.model_bytes = window_bytes;
    req.on_complete = [&](Tick, IoStatus) {
      if (++done < kPasses) {
        // Next burst once the previous one has drained to flash plus a
        // compute window — the write buffer does not grow without bound.
        const Tick drain = std::max(dev.flashvisor().write_drain_horizon(), sim.Now());
        sim.ScheduleAt(drain + kComputeGap, write_pass);
      } else {
        // Disarm the periodic background tasks so the event queue drains.
        dev.storengine().Stop();
      }
    };
    dev.flashvisor().SubmitIo(std::move(req));
  };
  write_pass();

  // A latency-sensitive reader probes a 64 KB group every 5 ms while the
  // churn runs: the victim of any reclamation happening on its critical path.
  std::vector<double> read_lat;
  bool stop_reader = false;
  std::function<void()> reader = [&]() {
    if (stop_reader) {
      return;
    }
    const Tick issued = sim.Now();
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kRead;
    req.flash_addr = probe_addr;
    req.model_bytes = group_bytes;
    req.on_complete = [&, issued](Tick t, IoStatus) {
      read_lat.push_back(TicksToUs(t - issued));
      if (done < kPasses) {
        sim.Schedule(5 * kMs, reader);
      }
    };
    dev.flashvisor().SubmitIo(std::move(req));
  };
  reader();
  sim.Run();
  stop_reader = true;

  GcOutcome out;
  out.total_time = sim.Now();
  out.gc_passes = dev.storengine().gc_passes();
  out.migrated = dev.storengine().groups_migrated();
  out.erases = dev.backbone().erases();
  out.foreground = dev.flashvisor().foreground_reclaims();
  const HistogramSummary lat = SummarizeSamples(std::move(read_lat));
  out.read_mean_us = lat.mean;
  out.read_p99_us = lat.p99;
  out.read_max_us = lat.max;
  return out;
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  PrintHeader("Ablation: background (Storengine) vs on-demand garbage collection");
  std::vector<std::function<GcOutcome()>> jobs;
  jobs.emplace_back([] { return RunOverwriteChurn(true); });
  jobs.emplace_back([] { return RunOverwriteChurn(false); });
  const std::vector<GcOutcome> outcomes = SweepRunner().Run(std::move(jobs));
  const GcOutcome& bg = outcomes[0];
  const GcOutcome& fg = outcomes[1];
  PrintRow({"mode", "bg passes", "fg reclaims", "read mean(us)", "read p99(us)",
            "read max(us)"},
           16);
  PrintRow({"background", Fmt(static_cast<double>(bg.gc_passes), 0),
            Fmt(static_cast<double>(bg.foreground), 0), Fmt(bg.read_mean_us),
            Fmt(bg.read_p99_us), Fmt(bg.read_max_us)},
           16);
  PrintRow({"on-demand", Fmt(static_cast<double>(fg.gc_passes), 0),
            Fmt(static_cast<double>(fg.foreground), 0), Fmt(fg.read_mean_us),
            Fmt(fg.read_p99_us), Fmt(fg.read_max_us)},
           16);
  BenchJson json("bench_ablation_gc");
  for (const auto& [label, o] : {std::pair<const char*, const GcOutcome&>{"background", bg},
                                 {"on-demand", fg}}) {
    json.AddScalarRow(label, "IntraO3",
                      {{"total_time_ms", TicksToMs(o.total_time)},
                       {"gc_passes", static_cast<double>(o.gc_passes)},
                       {"groups_migrated", static_cast<double>(o.migrated)},
                       {"erases", static_cast<double>(o.erases)},
                       {"foreground_reclaims", static_cast<double>(o.foreground)},
                       {"read_mean_us", o.read_mean_us},
                       {"read_p99_us", o.read_p99_us},
                       {"read_max_us", o.read_max_us}});
  }
  std::printf("\nBackground GC reclaims ahead of demand, keeping the write path from\n"
              "stalling on pool exhaustion (paper: Storengine overlaps reclamation with\n"
              "kernel execution and address translation).\n");
  return 0;
}

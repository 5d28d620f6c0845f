// bench_micro_engine: engine-level performance of the simulation core.
//
// Two measurements (see docs/PERFORMANCE.md):
//  1. Event-churn throughput (events/sec) of the event queue on an
//     ONFi-flavoured self-scheduling workload, at a near-idle (64) and a
//     loaded (16384) in-flight population.
//  2. End-to-end simulated-ticks-per-wall-second and events/sec for a real
//     workload on one device.
//
// Output includes machine-parsable lines of the form
//     PERF <metric> <label> <value>
// scripts/run_all.sh greps these for BENCH_perf.json and the perf gate.
// Set FABACUS_MIN_EVENTS_PER_SEC to make the process exit non-zero, right
// after part 1, when the loaded-point churn throughput falls below the
// threshold, and FABACUS_MICRO_EVENTS to change the churn length (default
// 400000).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/sim/event_queue.h"

namespace fabacus {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Delay mix drawn from the NAND timing constants the simulator schedules
// with: mostly command/crossbar overheads and reads, a tail of program and
// erase completions. Deterministic LCG, consumed in event-fire order.
Tick NextDelay(std::uint64_t* lcg) {
  *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  // Multiply-shift keeps the generator off the critical path (a 64-bit
  // modulo costs ~25 cycles, a visible share of one queue operation).
  const std::uint64_t r = ((*lcg >> 32) * 100) >> 32;
  if (r < 50) {
    return kUs;  // command overhead / crossbar hop
  }
  if (r < 80) {
    return 81 * kUs;  // tR
  }
  if (r < 95) {
    return 8 * kUs;  // page transfer on the channel bus
  }
  if (r < 99) {
    return 2600 * kUs;  // tPROG
  }
  return 6 * kMs;  // tBERS
}

// Self-scheduling churn: every popped event pushes its successor.
struct Churn {
  EventQueue q;
  std::uint64_t remaining = 0;
  Tick now = 0;
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sink = 0;

  void ScheduleNext() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    const Tick delay = NextDelay(&lcg);
    // 24-byte capture (pointer + two words), the shape of the simulator's
    // real [this, id, tick] lambdas: inside EventFn's 32-byte inline storage.
    const std::uint64_t a = lcg;
    const std::uint64_t b = remaining;
    q.Push(now + delay, [this, a, b] {
      sink += a ^ b;
      ScheduleNext();
    });
  }

  // Returns events/sec over `total` pop+dispatch+push cycles.
  double Run(std::uint64_t total, int inflight) {
    remaining = total;
    for (int i = 0; i < inflight; ++i) {
      ScheduleNext();
    }
    const Clock::time_point t0 = Clock::now();
    Tick when = 0;
    while (!q.empty()) {
      EventQueue::Callback fn = q.Pop(&when);
      now = when;
      fn();
    }
    const Clock::time_point t1 = Clock::now();
    return static_cast<double>(total) / Seconds(t0, t1);
  }
};

// Best of `reps` fresh runs.
double ChurnEventsPerSec(std::uint64_t total, int reps, int inflight) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Churn churn;
    best = std::max(best, churn.Run(total, inflight));
  }
  return best;
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  const long long n = std::atoll(v);
  return n > 0 ? static_cast<std::uint64_t>(n) : fallback;
}

void Perf(const char* metric, const char* label, double value) {
  std::printf("PERF %s %s %.0f\n", metric, label, value);
}

}  // namespace
}  // namespace fabacus

int main() {
  using namespace fabacus;
  const std::uint64_t kEvents = EnvU64("FABACUS_MICRO_EVENTS", 400000);
  constexpr int kReps = 3;

  PrintHeader("Engine micro-bench 1: event-churn throughput");
  // Two in-flight populations: a near-idle device (64 pending events) and a
  // loaded one (16384 — 24 kernels fanning requests across 64 channel queues
  // and write buffers). The loaded point is the one the floor gates.
  PrintRow({"in flight", "Mev/s"}, 12);
  double loaded = 0.0;
  for (const int inflight : {64, 16384}) {
    const double c = ChurnEventsPerSec(kEvents, kReps, inflight);
    std::printf("PERF events_per_sec calendar_eventfn_%d %.0f\n", inflight, c);
    PrintRow({Fmt(inflight, 0), Fmt(c / 1e6, 2)}, 12);
    loaded = c;
  }
  const std::uint64_t min_eps = EnvU64("FABACUS_MIN_EVENTS_PER_SEC", 0);
  if (min_eps > 0 && loaded < static_cast<double>(min_eps)) {
    std::fprintf(stderr, "PERF GATE FAILED: calendar engine %.0f events/s < required %llu\n",
                 loaded, static_cast<unsigned long long>(min_eps));
    return 1;
  }

  PrintHeader("Engine micro-bench 2: end-to-end device run (ATAX x6, IntraO3)");
  const Workload* atax = WorkloadRegistry::Get().Find("ATAX");
  const BenchRun run = RunFlashAbacusSystem({atax}, 6, SchedulerKind::kIntraOutOfOrder);
  PrintRow({"events/s", "sim-ticks/wall-s", "wall(s)"}, 20);
  PrintRow({Fmt(static_cast<double>(run.events_executed) / run.wall_seconds, 0),
            Fmt(run.sim_ticks / run.wall_seconds, 0), Fmt(run.wall_seconds, 3)},
           20);
  Perf("events_per_sec", "device", static_cast<double>(run.events_executed) / run.wall_seconds);
  Perf("sim_ticks_per_wall_second", "calendar", run.sim_ticks / run.wall_seconds);
  return 0;
}

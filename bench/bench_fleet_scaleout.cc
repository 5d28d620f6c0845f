// Fleet scale-out: aggregate serving throughput across 1/2/4 simulated
// devices under open-loop Poisson traffic at a fixed per-device arrival
// rate, for each placement policy (docs/FLEET.md).
//
// With the offered load scaled in proportion to the fleet, an ideal fleet
// serves 4x the requests of a single device in the same span; queueing,
// shedding and placement skew eat into that. The table reports per-policy
// aggregate throughput, client-latency percentiles, shed rate and re-route
// retries, plus the 1->4 device scaling factor (target: >= 3x).
//
// The mega phase pushes the scenario axis instead of the fidelity axis:
// 64 synthetic-service devices under 1M and then 10M streamed requests,
// gating that peak RSS stays flat between the two cells — the streaming-
// sketch aggregation contract (constant memory in the request count). It
// runs first, before the real-device phases raise the process's RSS
// high-water mark, and its gate status is returned after the other phases.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/fleet/fleet.h"

namespace fabacus {
namespace {

constexpr double kPerDeviceRate = 200.0;  // arrivals/s offered per device
constexpr int kPerDeviceRequests = 24;    // requests offered per device

FleetConfig MakeConfig(int devices, PlacementPolicy policy) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.policy = policy;
  cfg.traffic.model = TrafficConfig::Model::kOpenLoop;
  cfg.traffic.seed = 42;
  cfg.traffic.num_clients = 8;
  cfg.traffic.arrival_rate_per_s = kPerDeviceRate * devices;
  cfg.traffic.total_requests = kPerDeviceRequests * devices;
  cfg.max_route_attempts = 1;  // keeps every policy on the partitioned path
  return cfg;
}

struct Cell {
  int devices;
  FleetReport rep;
};

void Run(BenchJson* json) {
  const std::vector<PlacementPolicy> policies = {PlacementPolicy::kRoundRobin,
                                                 PlacementPolicy::kLeastOutstanding,
                                                 PlacementPolicy::kDataAffinity};
  const std::vector<int> device_counts = {1, 2, 4};

  PrintHeader("Fleet scale-out: aggregate throughput vs device count (" +
              Fmt(kPerDeviceRate, 0) + " req/s offered per device)");
  PrintRow({"policy", "devices", "exec", "served", "shed%", "retries", "req/s", "MB/s",
            "p50 ms", "p99 ms", "util", "inst hits", "verified"});

  std::vector<std::vector<Cell>> by_policy;
  for (PlacementPolicy policy : policies) {
    by_policy.emplace_back();
    for (int devices : device_counts) {
      FleetConfig cfg = MakeConfig(devices, policy);
      if (!PolicyIsOblivious(policy) && devices > 1) {
        cfg.max_route_attempts = 2;  // state-aware: lockstep anyway, use retries
      }
      FleetReport rep = RunFleet(cfg);

      double util = 0.0;
      std::uint64_t hits = 0;
      for (const FleetDeviceStats& d : rep.devices) {
        util += d.utilization;
        hits += d.install_hits;
      }
      util /= static_cast<double>(rep.devices.size());
      const double shed_pct =
          rep.offered > 0 ? 100.0 * static_cast<double>(rep.shed) /
                                static_cast<double>(rep.offered)
                          : 0.0;
      const double p50 = rep.latency_ms.count() > 0 ? rep.latency_ms.Percentile(50) : 0.0;
      const double p99 = rep.latency_ms.count() > 0 ? rep.latency_ms.Percentile(99) : 0.0;

      const char* short_name = policy == PlacementPolicy::kRoundRobin        ? "rr"
                               : policy == PlacementPolicy::kLeastOutstanding ? "least-out"
                                                                              : "affinity";
      PrintRow({short_name, std::to_string(devices), rep.execution,
                std::to_string(rep.served), Fmt(shed_pct, 1),
                std::to_string(rep.route_retries), Fmt(rep.throughput_rps, 1),
                Fmt(rep.served_mb_s, 2), Fmt(p50, 2), Fmt(p99, 2), Fmt(util, 2),
                std::to_string(hits), rep.verified ? "yes" : "NO"});

      json->AddScalarRow(std::string("d").append(std::to_string(devices)), rep.policy,
                         {{"devices", static_cast<double>(devices)},
                          {"offered", static_cast<double>(rep.offered)},
                          {"served", static_cast<double>(rep.served)},
                          {"shed", static_cast<double>(rep.shed)},
                          {"route_retries", static_cast<double>(rep.route_retries)},
                          {"slo_violations", static_cast<double>(rep.slo_violations)},
                          {"throughput_rps", rep.throughput_rps},
                          {"served_mb_s", rep.served_mb_s},
                          {"latency_p50_ms", p50},
                          {"latency_p99_ms", p99},
                          {"shed_rate", shed_pct / 100.0},
                          {"mean_utilization", util},
                          {"install_hits", static_cast<double>(hits)},
                          {"makespan_ms", TicksToMs(rep.makespan)},
                          {"verified", rep.verified ? 1.0 : 0.0}});
      by_policy.back().push_back({devices, std::move(rep)});
    }
  }

  std::printf("\nAggregate throughput scaling, 1 -> %d devices (ideal %.1fx, target >= 3x):\n",
              device_counts.back(), static_cast<double>(device_counts.back()));
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const Cell& one = by_policy[p].front();
    const Cell& top = by_policy[p].back();
    const double scaling = one.rep.throughput_rps > 0.0
                               ? top.rep.throughput_rps / one.rep.throughput_rps
                               : 0.0;
    std::printf("  %-18s %.2fx\n", PlacementPolicyName(policies[p]), scaling);
  }
}

// Warm start (docs/SNAPSHOT.md): serve one window cold, snapshot the fleet
// (pre-filled flash + install caches + traffic stream position), resume into
// a fresh fleet and serve the next window warm. The warm window should serve
// from flash-resident datasets — install writes near zero, install hits up —
// which is the steady-state measurement the cold window understates.
void WarmStart(BenchJson* json) {
  FleetConfig cfg = MakeConfig(4, PlacementPolicy::kDataAffinity);
  const std::string snap_path = "bench_fleet_scaleout_warm.snap";

  PrintHeader("Warm start from a fleet snapshot (affinity, " +
              std::to_string(cfg.num_devices) + " devices)");
  PrintRow({"window", "served", "installs", "inst hits", "req/s", "MB/s", "verified"});

  FleetSim cold(cfg);
  const FleetReport cold_rep = cold.Run();
  std::string err;
  if (!cold.Snapshot(snap_path, &err)) {
    std::fprintf(stderr, "bench_fleet_scaleout: snapshot failed: %s\n", err.c_str());
    return;
  }
  FleetSim warm(cfg);
  if (!warm.Resume(snap_path, &err)) {
    std::fprintf(stderr, "bench_fleet_scaleout: resume failed: %s\n", err.c_str());
    std::remove(snap_path.c_str());
    return;
  }
  const FleetReport warm_rep = warm.Run();
  std::remove(snap_path.c_str());

  const auto emit = [&](const char* window, const FleetReport& rep) {
    std::uint64_t installs = 0;
    std::uint64_t hits = 0;
    for (const FleetDeviceStats& d : rep.devices) {
      installs += d.installs;
      hits += d.install_hits;
    }
    PrintRow({window, std::to_string(rep.served), std::to_string(installs),
              std::to_string(hits), Fmt(rep.throughput_rps, 1),
              Fmt(rep.served_mb_s, 2), rep.verified ? "yes" : "NO"});
    json->AddScalarRow("warm_start", window,
                       {{"served", static_cast<double>(rep.served)},
                        {"installs", static_cast<double>(installs)},
                        {"install_hits", static_cast<double>(hits)},
                        {"throughput_rps", rep.throughput_rps},
                        {"served_mb_s", rep.served_mb_s},
                        {"makespan_ms", TicksToMs(rep.makespan)},
                        {"verified", rep.verified ? 1.0 : 0.0}});
  };
  emit("cold", cold_rep);
  emit("warm", warm_rep);
}

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') {
    return fallback;
  }
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
}

// Mega scale-out: 64 synthetic-service devices, open-loop round-robin, run
// once at 1M requests and once at 10M. Both cells stream arrivals and retire
// requests into bounded sketches, so the only per-request state alive at any
// instant is the in-flight window — peak RSS of the 10M cell must stay
// within FABACUS_SCALEOUT_RSS_LIMIT_PCT (default 110%) of the 1M cell.
// Returns non-zero when the memory gate fails.
int MegaScaleOut(BenchJson* json) {
  constexpr int kMegaDevices = 64;
  constexpr double kMegaPerDeviceRate = 5000.0;  // ~63% of synthetic capacity
  const std::uint64_t base_requests = EnvU64("FABACUS_SCALEOUT_BASE_REQUESTS", 1000000);
  const std::uint64_t mega_requests = EnvU64("FABACUS_SCALEOUT_MEGA_REQUESTS", 10000000);
  const std::uint64_t limit_pct = EnvU64("FABACUS_SCALEOUT_RSS_LIMIT_PCT", 110);

  PrintHeader("Mega scale-out: " + std::to_string(kMegaDevices) +
              " synthetic devices, streamed arrivals, bounded-sketch aggregation");
  PrintRow({"requests", "served", "shed%", "req/s", "p50 ms", "p99 ms", "sim s",
            "wall s", "peak rss MB"});

  const auto run_cell = [&](std::uint64_t requests) {
    FleetConfig cfg;
    cfg.num_devices = kMegaDevices;
    cfg.policy = PlacementPolicy::kRoundRobin;
    cfg.synthetic_service = true;
    // Force the lockstep loop: it streams arrivals and recycles retired
    // requests, where the partitioned path materializes the whole schedule.
    cfg.execution = FleetConfig::Execution::kLockstep;
    cfg.traffic.model = TrafficConfig::Model::kOpenLoop;
    cfg.traffic.seed = 42;
    cfg.traffic.num_clients = 64;
    cfg.traffic.arrival_rate_per_s = kMegaPerDeviceRate * kMegaDevices;
    cfg.traffic.total_requests = static_cast<int>(requests);
    cfg.max_route_attempts = 2;
    const auto start = std::chrono::steady_clock::now();
    FleetReport rep = RunFleet(cfg);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const std::uint64_t rss = PeakRssBytes();

    const double shed_pct = rep.offered > 0 ? 100.0 * static_cast<double>(rep.shed) /
                                                  static_cast<double>(rep.offered)
                                            : 0.0;
    const double p50 = rep.latency_ms.Percentile(50);
    const double p99 = rep.latency_ms.Percentile(99);
    PrintRow({std::to_string(requests), std::to_string(rep.served), Fmt(shed_pct, 2),
              Fmt(rep.throughput_rps, 0), Fmt(p50, 2), Fmt(p99, 2),
              Fmt(TicksToMs(rep.makespan) / 1000.0, 1), Fmt(wall_s, 1),
              Fmt(static_cast<double>(rss) / (1024.0 * 1024.0), 1)});
    json->AddScalarRow("mega", std::to_string(requests),
                       {{"devices", static_cast<double>(kMegaDevices)},
                        {"requests", static_cast<double>(requests)},
                        {"offered", static_cast<double>(rep.offered)},
                        {"served", static_cast<double>(rep.served)},
                        {"shed", static_cast<double>(rep.shed)},
                        {"throughput_rps", rep.throughput_rps},
                        {"latency_p50_ms", p50},
                        {"latency_p99_ms", p99},
                        {"makespan_ms", TicksToMs(rep.makespan)},
                        {"wall_seconds", wall_s},
                        {"requests_per_wall_sec",
                         wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0},
                        {"peak_rss_mb", static_cast<double>(rss) / (1024.0 * 1024.0)}});
    return rss;
  };

  // ru_maxrss is a process-wide monotone high-water mark, so running the
  // small cell first (and this phase before any real-device phase) gives the
  // gate its baseline: if the big cell allocates O(requests), the mark jumps
  // ~10x; if aggregation is bounded, it barely moves.
  const std::uint64_t rss_base = run_cell(base_requests);
  const std::uint64_t rss_mega = run_cell(mega_requests);
  const std::uint64_t ceiling = rss_base / 100 * limit_pct;
  std::printf("\nMemory gate: peak RSS %.1f MB after %lluM-request cell vs %.1f MB baseline "
              "(ceiling %.1f MB = %llu%%)\n",
              static_cast<double>(rss_mega) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(mega_requests / 1000000),
              static_cast<double>(rss_base) / (1024.0 * 1024.0),
              static_cast<double>(ceiling) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(limit_pct));
  if (rss_base > 0 && rss_mega > ceiling) {
    std::fprintf(stderr,
                 "bench_fleet_scaleout: FAIL: fleet aggregation memory is not flat in the "
                 "request count (peak RSS grew past %llu%% of the baseline cell)\n",
                 static_cast<unsigned long long>(limit_pct));
    return 1;
  }
  std::printf("Memory gate: OK (flat aggregation memory at %lluM requests)\n",
              static_cast<unsigned long long>(mega_requests / 1000000));
  return 0;
}

}  // namespace
}  // namespace fabacus

int main() {
  fabacus::BenchJson json("bench_fleet_scaleout");
  const int mega_status = fabacus::MegaScaleOut(&json);
  fabacus::Run(&json);
  fabacus::WarmStart(&json);
  return mega_status;
}

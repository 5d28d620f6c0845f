// The two fleet workloads. Both run FleetSim with Execution::kLockstep (one
// thread) and open-loop Poisson traffic below saturation, seeded by the run's
// seed, so no request is shed.
//
// fleet_serve: four real-device shards (the default FleetConfig device) under
//   IntraO3, round-robin routing, outputs verified. Exercises the
//   fleet -> device path: install-cache hits, a re-Prepare and a Verify per
//   served request, one device run per batch. 1,000 requests at 100 req/s:
//   p99 has ten samples beyond it, and the twelve cold installs (four shards
//   x three kernels) lie above it; at 1,200 requests they straddle p99 and
//   it jumps between ~19 and ~29 ms from seed to seed.
// fleet_synth: sixteen shards in synthetic-service mode and two million
//   streamed requests. The only workload where the fleet loop itself
//   (admission, routing, retirement, LogHistogram aggregation) dominates.
#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "spans.h"
#include "src/fleet/fleet.h"

namespace fabbench {
namespace {

using namespace fabacus;

struct FleetShape {
  int devices = 4;
  bool synthetic = false;
  int requests = 0;
  double rate_per_s = 0.0;
};

constexpr FleetShape kServe{.devices = 4, .synthetic = false, .requests = 1000,
                            .rate_per_s = 100.0};
constexpr FleetShape kSynth{.devices = 16, .synthetic = true, .requests = 2'000'000,
                            .rate_per_s = 32'000.0};

class FleetWorkload : public BenchWorkload {
 public:
  FleetWorkload(const Options& opt, const FleetShape& shape) : opt_(opt), shape_(shape) {}

  double TimeSetup() override {
    const auto start = std::chrono::steady_clock::now();
    FleetSim fleet(Config());
    return SecondsSince(start);
  }

  UnitResult RunUnit() override {
    UnitResult u;
    std::unique_ptr<FleetSim> fleet;
    {
      ScopedSpan span("fleet.setup");
      fleet = std::make_unique<FleetSim>(Config());
    }
    FleetReport rep;
    {
      ScopedSpan span("fleet.run");
      rep = fleet->Run();
    }
    {
      ScopedSpan span("fleet.report");
      u.Check(!rep.ToJson().empty(), "fleet produced an empty report");
    }
    {
      ScopedSpan span("fleet.teardown");
      fleet.reset();
    }
    if (opt_.inject == "fleet_unverified") {
      rep.verified = false;
    }

    // Every offered request is one check: served and verified, or failed.
    const std::uint64_t lost = rep.shed + rep.failed + (rep.verified ? 0 : rep.served);
    u.attempted += rep.offered;
    u.failed += std::min(lost, rep.offered);
    if (rep.shed + rep.failed > 0) {
      u.failures.push_back(std::to_string(rep.shed) + " shed and " + std::to_string(rep.failed) +
                           " failed of " + std::to_string(rep.offered) + " offered requests");
    }
    if (!rep.verified) {
      u.failures.push_back("fleet report: outputs not verified");
    }

    std::map<std::string, double>& s = u.sim;
    s["throughput_mb_s"] = rep.served_mb_s;
    s["latency_p50_ms"] = rep.latency_ms.Percentile(50);
    s["latency_tail_ms"] = rep.latency_ms.Percentile(99);
    s["latency_tail_pct"] = 99.0;
    s["latency_samples"] = static_cast<double>(rep.latency_ms.count());
    double energy = 0.0;
    double events = 0.0;
    double installs = 0.0;
    double hits = 0.0;
    double batches = 0.0;
    double utilization = 0.0;
    double peak_queue = 0.0;
    for (const FleetDeviceStats& d : rep.devices) {
      energy += d.energy_j;
      events += static_cast<double>(d.events_executed);
      installs += static_cast<double>(d.installs);
      hits += static_cast<double>(d.install_hits);
      batches += static_cast<double>(d.batches);
      utilization += d.utilization;
      peak_queue = std::max(peak_queue, static_cast<double>(d.peak_queue_depth));
    }
    s["energy_j"] = energy;
    s["energy.total_j"] = energy;
    s["sim.events"] = events;
    s["fleet.device_events"] = events;
    s["fleet.install_hit_ratio"] = installs + hits > 0.0 ? hits / (installs + hits) : 0.0;
    s["fleet.batches"] = batches;
    s["fleet.device_utilization"] = utilization / static_cast<double>(rep.devices.size());
    s["fleet.peak_queue_depth"] = peak_queue;
    s["fleet.slo_violations"] = static_cast<double>(rep.slo_violations);
    s["fleet.served"] = static_cast<double>(rep.served);
    u.sim_s = TicksToSeconds(rep.makespan);
    return u;
  }

 private:
  FleetConfig Config() const {
    FleetConfig cfg;
    cfg.num_devices = shape_.devices;
    cfg.scheduler = SchedulerKind::kIntraOutOfOrder;
    cfg.policy = PlacementPolicy::kRoundRobin;
    cfg.execution = FleetConfig::Execution::kLockstep;
    cfg.synthetic_service = shape_.synthetic;
    cfg.verify_outputs = true;
    cfg.traffic.model = TrafficConfig::Model::kOpenLoop;
    cfg.traffic.seed = opt_.seed;
    cfg.traffic.total_requests = shape_.requests;
    cfg.traffic.arrival_rate_per_s = shape_.rate_per_s;
    if (!shape_.synthetic) {
      // Three equally likely kernels whose served latencies are 2.6, 5.8 and
      // 6.0 ms: the median request sits inside one kernel's latency band. The
      // default four-kernel mix splits 50/50 between a ~3 ms and a ~6 ms band,
      // so its median jumps between them from seed to seed.
      cfg.traffic.mix = {{"ATAX", 1.0}, {"BICG", 1.0}, {"MVT", 1.0}};
    }
    return cfg;
  }

  Options opt_;
  FleetShape shape_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeFleetServe(const Options& opt) {
  return std::make_unique<FleetWorkload>(opt, kServe);
}

std::unique_ptr<BenchWorkload> MakeFleetSynth(const Options& opt) {
  return std::make_unique<FleetWorkload>(opt, kSynth);
}

}  // namespace fabbench

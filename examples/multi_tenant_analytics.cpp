// Multi-tenant analytics: three tenants offload different applications to
// one FlashAbacus device at the same time — a linear-algebra job (BICG), a
// log-processing job (wordcount) and a similarity search (k-NN). The demo
// runs the mix under all four self-governing schedulers and shows why the
// out-of-order intra-kernel scheduler wins when tenants' kernels have
// different shapes (paper §5.1, heterogeneous workloads).
//
//   $ ./build/examples/multi_tenant_analytics
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workloads/workload.h"

namespace {

struct Tenant {
  const char* job;
  const fabacus::Workload* workload;
  int instances;
};

}  // namespace

int main() {
  using namespace fabacus;
  const WorkloadRegistry& registry = WorkloadRegistry::Get();
  const std::vector<Tenant> tenants = {
      {"linear-algebra", registry.Find("BICG"), 2},
      {"log-processing", registry.Find("wc"), 2},
      {"similarity-search", registry.Find("nn"), 2},
  };

  std::printf("tenants:\n");
  for (const Tenant& t : tenants) {
    std::printf("  %-18s -> %-6s x%d (%d microblocks, %d serial)\n", t.job,
                t.workload->name().c_str(), t.instances,
                t.workload->spec().num_microblocks(),
                t.workload->spec().num_serial_microblocks());
  }

  const SchedulerKind kinds[] = {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                                 SchedulerKind::kIntraInOrder,
                                 SchedulerKind::kIntraOutOfOrder};
  std::printf("\n%-10s %-12s %-12s %-12s %-10s\n", "scheduler", "makespan(ms)", "MB/s",
              "avg lat(ms)", "util(%)");
  for (SchedulerKind kind : kinds) {
    Simulator sim;
    FlashAbacusConfig config = FlashAbacusConfig::Paper();
    config.model_scale = 1.0 / 32.0;
    FlashAbacus device(&sim, config);
    Rng rng(7);
    std::vector<std::unique_ptr<AppInstance>> owned;
    std::vector<AppInstance*> instances;
    int app_id = 0;
    for (const Tenant& t : tenants) {
      for (int i = 0; i < t.instances; ++i) {
        owned.push_back(
            std::make_unique<AppInstance>(app_id, i, &t.workload->spec(), config.model_scale));
        t.workload->Prepare(*owned.back(), rng);
        instances.push_back(owned.back().get());
      }
      ++app_id;
    }
    for (AppInstance* inst : instances) {
      device.InstallData(inst, [](Tick) {});
    }
    sim.Run();
    RunReport result;
    device.Run(instances, kind, [&](RunReport r) { result = std::move(r); });
    sim.Run();

    bool all_ok = true;
    std::size_t idx = 0;
    for (const Tenant& t : tenants) {
      for (int i = 0; i < t.instances; ++i) {
        all_ok = all_ok && t.workload->Verify(*owned[idx++]);
      }
    }
    std::printf("%-10s %-12.2f %-12.1f %-12.2f %-10.1f %s\n", SchedulerKindName(kind),
                TicksToMs(result.makespan), result.throughput_mb_s,
                result.KernelLatencyMs().mean, result.worker_utilization * 100.0,
                all_ok ? "" : "VERIFY-FAILED");
  }
  std::printf("\nIntraO3 fills idle LWPs with screens borrowed across tenants, so one\n"
              "tenant's serial microblocks never idle the device.\n");
  return 0;
}

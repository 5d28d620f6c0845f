// The conventional heterogeneous-computing baseline ("SIMD", paper §5):
// the same 8-LWP low-power accelerator, but driven by a host through the
// discrete software stacks of Figure 1 — data lives on an external NVMe SSD,
// every kernel follows the prologue/body/epilogue model of Figure 3a, and
// execution is OpenMP-style data-parallel: one kernel at a time, each
// non-serial microblock fanned out across all LWPs with a barrier, serial
// microblocks on a single LWP. No overlap between I/O and compute.
#ifndef SRC_HOST_SIMD_SYSTEM_H_
#define SRC_HOST_SIMD_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/core/kernel.h"
#include "src/core/lwp.h"
#include "src/core/serial_core.h"
#include "src/core/trace.h"
#include "src/host/nvme_ssd.h"
#include "src/host/storage_stack.h"
#include "src/mem/dram.h"
#include "src/noc/crossbar.h"
#include "src/power/power_model.h"
#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace fabacus {

struct SimdConfig {
  int num_lwps = 8;  // all LWPs are workers (no self-governing firmware)
  LwpConfig lwp;
  CacheConfig cache;
  DramConfig dram;
  CrossbarConfig tier1{.name = "simd.tier1",
                       .ports = 12,
                       .port_gb_per_s = 16.0,
                       .fabric_gb_per_s = 16.0,
                       .hop_latency = 10};
  NvmeConfig nvme;
  StorageStackConfig stack;
  double pcie_gb_per_s = 1.0;
  Tick pcie_latency = 1 * kUs;
  double model_scale = 1.0 / 16.0;
  // Same semantics as FlashAbacusConfig::record_full_trace: full interval
  // trace for Chrome-trace/Fig-15 runs, energy-model tags only otherwise.
  bool record_full_trace = false;
  PowerModel power;
};

class SimdSystem {
 public:
  explicit SimdSystem(Simulator* sim, const SimdConfig& config = SimdConfig{});
  ~SimdSystem();
  SimdSystem(const SimdSystem&) = delete;
  SimdSystem& operator=(const SimdSystem&) = delete;

  // Stages the instance's input sections as files on the NVMe SSD and
  // creates (empty) output files. No simulated time elapses.
  void InstallData(AppInstance* inst);

  // Executes the instances in submission order (strictly serial body loops);
  // `done` receives the populated RunReport.
  void Run(std::vector<AppInstance*> instances, std::function<void(RunReport)> done);

  // Reads an output section's file contents (for end-to-end verification).
  void ReadSectionFromSsd(AppInstance* inst, int section_idx, std::vector<float>* out);

  static std::string FileName(const AppInstance& inst, int section_idx);

  NvmeSsd& ssd() { return *ssd_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const SimdConfig& config() const { return config_; }
  int num_lwps() const { return static_cast<int>(lwps_.size()); }

 private:
  struct RunState;

  void RunNextInstance(RunState* rs);
  void RunMicroblock(RunState* rs, AppInstance* inst, int mblk, Tick ready);
  void FinishCompute(RunState* rs, AppInstance* inst, Tick when);
  void FinalizeResult(RunState* rs);
  void RegisterMetrics();

  Simulator* sim_;
  SimdConfig config_;
  std::unique_ptr<Dram> dram_;
  std::unique_ptr<Crossbar> tier1_;
  std::unique_ptr<NvmeSsd> ssd_;
  std::unique_ptr<SerialCore> host_cpu_;
  std::unique_ptr<StorageStack> stack_;
  std::unique_ptr<BandwidthResource> pcie_;
  std::vector<std::unique_ptr<Lwp>> lwps_;
  RunTrace trace_;
  MetricsRegistry metrics_;
  std::unique_ptr<RunState> run_;
};

}  // namespace fabacus

#endif  // SRC_HOST_SIMD_SYSTEM_H_

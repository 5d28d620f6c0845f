// The FlashAbacus accelerator device: 8 LWPs over tier-1/tier-2 crossbars,
// DDR3L + scratchpad, the flash backbone behind SRIO, Flashvisor and
// Storengine on two dedicated LWPs, and the remaining six LWPs as workers
// executing offloaded multi-kernel workloads under one of four scheduling
// models (paper §4.1-4.2):
//   InterSt  — static inter-kernel   (kernel -> LWP by app id)
//   InterDy  — dynamic inter-kernel  (kernel -> first free LWP)
//   IntraIo  — in-order intra-kernel (screens of the head microblock fan out)
//   IntraO3  — out-of-order intra-kernel (screens steal across kernels/apps)
#ifndef SRC_CORE_FLASHABACUS_H_
#define SRC_CORE_FLASHABACUS_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/execution_chain.h"
#include "src/core/flashvisor.h"
#include "src/core/kernel.h"
#include "src/core/kernel_table.h"
#include "src/core/lwp.h"
#include "src/core/run_report.h"
#include "src/core/storengine.h"
#include "src/core/trace.h"
#include "src/flash/flash_backbone.h"
#include "src/mem/dram.h"
#include "src/mem/scratchpad.h"
#include "src/noc/crossbar.h"
#include "src/power/energy_meter.h"
#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"

namespace fabacus {

enum class SchedulerKind { kInterStatic, kInterDynamic, kIntraInOrder, kIntraOutOfOrder };

const char* SchedulerKindName(SchedulerKind kind);

struct FlashAbacusConfig {
  int num_lwps = 8;  // two of them host Flashvisor and Storengine
  LwpConfig lwp;
  CacheConfig cache;
  NandConfig nand;
  DramConfig dram;
  ScratchpadConfig scratchpad;
  CrossbarConfig tier1{.name = "tier1",
                       .ports = 12,
                       .port_gb_per_s = 16.0,
                       .fabric_gb_per_s = 16.0,
                       .hop_latency = 10};
  FlashvisorConfig flashvisor;
  StorengineConfig storengine;
  double pcie_gb_per_s = 1.0;  // Table 1: PCIe v2.0 x2
  Tick pcie_latency = 1 * kUs;
  // Global scale on modelled data volumes (paper-sized inputs are hundreds of
  // MB; see EXPERIMENTS.md for the scaling discussion).
  double model_scale = 1.0 / 16.0;
  // Streamed section loads (paper §2.2: DDR3L "hides the long latency
  // imposed by flash accesses"): kernels start computing once this fraction
  // of their input sections is resident; the tail streams in behind the
  // compute. 1.0 reverts to fully-gated loads.
  double load_stream_fraction = 0.2;
  // Host-visible I/O retry policy: an uncorrectable completion is retried
  // (whole request) up to io_max_attempts total submissions, each resubmit
  // delayed by io_retry_backoff.
  int io_max_attempts = 3;
  Tick io_retry_backoff = 200 * kUs;
  // Record the full per-screen / per-bus-beat interval trace (Chrome-trace
  // export, Fig-14/15 time series). Off by default: throughput runs then keep
  // only the kEnergyTraceTags intervals the energy model integrates, which
  // leaves every reported number bit-identical while skipping the dominant
  // trace-append cost (see docs/PERFORMANCE.md).
  bool record_full_trace = false;
  PowerModel power;
  // Multi-tenant QoS (docs/QOS.md): tenant specs, per-tenant flash quotas and
  // the scheduling policy layered under the four paper schedulers. Empty
  // tenants = single-tenant mode, byte-identical to the pre-tenant device.
  TenantSchedConfig tenant_sched;

  // The Table-1 device of the paper (the defaults above).
  static FlashAbacusConfig Paper();
  // A scaled-down device for unit tests and quick smoke runs: same geometry,
  // model_scale = 1/256 so end-to-end runs finish in milliseconds of sim time.
  static FlashAbacusConfig Small();

  // Returns an empty string when the configuration is a buildable device, or
  // a human-readable description of the first problem found (e.g. fewer than
  // 3 LWPs — Flashvisor + Storengine + at least one worker — or non-positive
  // link bandwidths/scales). The FlashAbacus constructor CHECK-fails on a
  // non-empty result.
  std::string Validate() const;
};

class FlashAbacus {
 public:
  explicit FlashAbacus(Simulator* sim, const FlashAbacusConfig& config = FlashAbacusConfig{});
  ~FlashAbacus();
  FlashAbacus(const FlashAbacus&) = delete;
  FlashAbacus& operator=(const FlashAbacus&) = delete;

  // Allocates flash extents for the instance's data sections and writes the
  // input buffers to flash (device-resident dataset). `done` fires when the
  // data is accepted; durable after DrainWrites(). Returns false (and `done`
  // never fires, nothing is allocated) when the instance's tenant is over
  // its flash-space quota — the denial is counted in the tenant's metrics.
  bool InstallData(AppInstance* inst, std::function<void(Tick)> done);

  // Offloads and executes the instances under `kind`; `done` receives the
  // report when every instance has completed (including output writeback to
  // the DDR3L write buffer).
  void Run(std::vector<AppInstance*> instances, SchedulerKind kind,
           std::function<void(RunReport)> done);

  // Reads an output section's current flash contents into `out` (sized to the
  // section's functional bytes) — used by tests to verify end-to-end flow.
  void ReadSectionFromFlash(AppInstance* inst, int section_idx, std::vector<float>* out,
                            std::function<void(Tick)> done);

  // --- Power-loss crash injection and recovery -----------------------------
  // Schedules a power failure at absolute tick `when`: the event queue is
  // cleared (nothing after the cut executes), in-flight flash programs tear,
  // and every volatile structure (mapping table, block pools, write buffer,
  // locks, queues) is wiped. Any in-progress Run() is abandoned — its done
  // callback never fires.
  void CrashAt(Tick when);
  // Rebuilds the FTL from flash alone (journal snapshot + OOB replay); see
  // Flashvisor::RecoverFromFlash. Re-seats Storengine's journal location and
  // re-arms it so the device is usable again. Only valid after a crash.
  Flashvisor::RecoveryReport RecoverFromFlash();
  bool crashed() const { return crashed_; }

  // --- Whole-device checkpoint/restore (docs/SNAPSHOT.md) ------------------
  // Captures the complete device state — simulator clock, flash contents and
  // OOB records, FTL (mapping/blocks/locks), wear and fault state, memories,
  // LWP occupancy, trace and every counter — as a versioned snapshot. Only
  // valid at a quiescent point: no Run() in flight, Flashvisor's inbound
  // queue idle, and nothing but inert daemon ticks pending in the event
  // queue (CHECK-enforced).
  bool Snapshot(const std::string& path, std::string* error = nullptr) const;
  // In-memory form, used by FleetSim's per-shard fan-in and by tests.
  SnapshotBuilder BuildSnapshot() const;

  // Restores a snapshot taken from an identically-configured device into
  // this one (typically freshly constructed). Returns false with *error set
  // on kind/config/version mismatches or corrupt payloads; the device state
  // is unspecified after a failed resume — discard it. Pending events are
  // dropped first; a run split into snapshot/resume segments reproduces the
  // unbroken run's RunReport byte for byte (tests/snapshot_test.cc).
  bool Resume(const SnapshotFile& snap, std::string* error = nullptr);
  bool Resume(const std::string& path, std::string* error = nullptr);

  // Stable digest of the geometry-relevant configuration. Snapshots embed it
  // and Resume refuses snapshots taken from a differently-shaped device.
  std::string ConfigFingerprint() const;

  std::uint64_t io_retries() const { return io_retries_.value(); }
  std::uint64_t io_failures() const { return io_failures_.value(); }

  int num_workers() const { return static_cast<int>(workers_.size()); }
  Flashvisor& flashvisor() { return *flashvisor_; }
  TenantManager& tenants() { return *tenants_; }
  Storengine& storengine() { return *storengine_; }
  FlashBackbone& backbone() { return *backbone_; }
  Dram& dram() { return *dram_; }
  Lwp& worker(int i) { return *workers_[static_cast<std::size_t>(i)]; }
  const FlashAbacusConfig& config() const { return config_; }
  RunTrace& trace() { return trace_; }
  // Every component's counters/gauges, registered under the naming scheme of
  // docs/OBSERVABILITY.md; RunReport carries a Snapshot() of this registry.
  const MetricsRegistry& metrics() const { return metrics_; }
  Simulator& sim() { return *sim_; }

 private:
  struct RunState;
  struct PendingKernel;

  void RegisterMetrics();
  // Submits through Flashvisor with host-side retry: an uncorrectable
  // completion is resubmitted (bounded attempts, io_retry_backoff apart);
  // the caller's on_complete sees the final outcome only.
  void SubmitIoReliable(Flashvisor::IoRequest req, int attempt = 0);
  void Crash();

  void OffloadKernel(RunState* rs, AppInstance* inst);
  void StartLoad(RunState* rs, AppInstance* inst);
  void TryDispatch(RunState* rs);
  void DispatchInterKernel(RunState* rs);
  void DispatchIntraKernel(RunState* rs);
  void RunWholeKernel(RunState* rs, AppInstance* inst, int worker, int start_mblk = 0);
  void RunKernelMicroblock(RunState* rs, AppInstance* inst, int worker, int mblk);
  // Weighted-fair helpers (docs/QOS.md). The preference order ranks run
  // instances latency-class first, then least virtual time, then tenant id,
  // then arrival. PickPendingKernel applies the same key to an inter queue;
  // ShouldPreemptInter decides whether a worker yields at a microblock
  // boundary to a queued latency-class kernel.
  std::vector<int> TenantDispatchOrder(const RunState* rs) const;
  std::size_t PickPendingKernel(const RunState* rs, const std::deque<PendingKernel>& q) const;
  bool ShouldPreemptInter(const RunState* rs, const AppInstance* inst, int worker) const;
  void ExecuteScreenOn(RunState* rs, const ScreenRef& ref, int worker);
  void StreamTail(RunState* rs, AppInstance* inst, DataSection* section, std::uint64_t addr,
                  std::uint64_t remaining, std::uint8_t* func_data,
                  std::uint64_t func_remaining);
  void OnComputeDone(RunState* rs, AppInstance* inst);
  void StartWriteback(RunState* rs, AppInstance* inst);
  void FinishInstance(RunState* rs, AppInstance* inst, Tick when);
  void MaybeFinishRun(RunState* rs);
  void FinalizeResult(RunState* rs);
  std::uint64_t SectionFuncBytes(const AppInstance& inst, const DataSection& s) const;

  Simulator* sim_;
  FlashAbacusConfig config_;
  std::unique_ptr<Dram> dram_;
  std::unique_ptr<Scratchpad> scratchpad_;
  std::unique_ptr<Crossbar> tier1_;
  std::unique_ptr<FlashBackbone> backbone_;
  std::unique_ptr<Flashvisor> flashvisor_;
  std::unique_ptr<Storengine> storengine_;
  std::unique_ptr<TenantManager> tenants_;
  std::unique_ptr<BandwidthResource> pcie_;
  std::vector<std::unique_ptr<Lwp>> workers_;
  RunTrace trace_;
  MetricsRegistry metrics_;
  std::unique_ptr<RunState> run_;

  bool crashed_ = false;
  Counter io_retries_;
  Counter io_failures_;
  Counter crashes_;
  Counter recoveries_;
  Counter recovery_lost_groups_;
  Counter recovery_torn_groups_;
  Tick last_recovery_ns_ = 0;
};

}  // namespace fabacus

#endif  // SRC_CORE_FLASHABACUS_H_

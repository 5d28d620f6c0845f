// Lightweight processor (LWP) model. Paper §2.2: TI C6678-class VLIW core at
// 1 GHz with eight functional units (2 multiply, 4 general-purpose, 2
// load/store), private 64 KB L1 / 512 KB L2, no out-of-order scheduling.
//
// Screen cost model: effective IPC is the static VLIW issue bound given the
// instruction mix and the per-class FU counts; memory stalls come from the
// analytic cache model's DDR3L spill traffic, reserved against the real DRAM
// banks (so co-running screens contend). Compute and memory overlap
// imperfectly on an in-order VLIW, controlled by `overlap_factor`.
#ifndef SRC_CORE_LWP_H_
#define SRC_CORE_LWP_H_

#include <string>
#include <utility>
#include <vector>

#include "src/core/kernel.h"
#include "src/mem/cache_model.h"
#include "src/mem/dram.h"
#include "src/noc/crossbar.h"
#include "src/sim/metrics.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

struct LwpConfig {
  double clock_ghz = 1.0;
  int mul_fus = 2;
  int alu_fus = 4;
  int ldst_fus = 2;
  int issue_width = 8;
  // Fraction of min(compute, memory) hidden by overlap; 1.0 = perfect
  // overlap (duration = max), 0.0 = fully serialized (duration = sum).
  double overlap_factor = 0.75;
  // Power/sleep controller: boot-address write + IPI + wake (paper §4,
  // "Execution") per kernel dispatched onto this LWP.
  Tick boot_overhead = 5 * kUs;
  // PSC sleep policy: an LWP idle longer than this is put into the sleep
  // state (deep-sleep power instead of idle power); waking costs
  // boot_overhead. Used by the energy model.
  Tick psc_sleep_threshold = 100 * kUs;
};

class Lwp : public Snapshottable {
 public:
  struct ScreenTiming {
    Tick start;
    Tick end;
    double avg_fus_busy;  // average FU occupancy while computing (for Fig 15a)
  };

  Lwp(int id, const LwpConfig& config, Dram* dram, Crossbar* tier1,
      const CacheConfig& cache_config = CacheConfig{});

  // Effective sustained IPC for an instruction mix.
  double EffectiveIpc(double frac_mul, double frac_alu, double frac_ldst) const;

  // Executes a screen starting no earlier than `now` (the LWP may still be
  // finishing earlier work). Reserves DRAM/crossbar bandwidth for the spill
  // traffic and accounts busy time. Purely timing; the functional body runs
  // separately.
  ScreenTiming ExecuteScreen(Tick now, const ScreenWork& work);

  // Charges the PSC kernel-boot sequence; returns when the LWP is runnable.
  Tick BootKernel(Tick now);

  int id() const { return id_; }
  Tick busy_until() const { return busy_until_; }
  Tick BusyTime(Tick now) const { return busy_.BusyTime(now); }
  double Utilization(Tick now) const { return busy_.Utilization(now); }
  std::uint64_t screens_executed() const { return screens_executed_.value(); }
  std::uint64_t kernel_boots() const { return kernel_boots_.value(); }
  const LwpConfig& config() const { return config_; }

  // Registers this LWP's metrics under `prefix` (e.g. "lwp/2"):
  // <prefix>/screens_executed, <prefix>/kernel_boots, <prefix>/busy_ns,
  // <prefix>/utilization.
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Busy intervals in execution order (for PSC sleep accounting and traces).
  const std::vector<std::pair<Tick, Tick>>& busy_intervals() const { return intervals_; }

  // Time this LWP spends in the PSC sleep state over [window_start,
  // window_end): idle gaps between busy intervals beyond the sleep
  // threshold (each entered once the threshold expires).
  Tick SleepTime(Tick window_start, Tick window_end) const;

  // Snapshottable: occupancy horizon, busy accounting, the interval history
  // (PSC sleep/energy accounting replays it) and dispatch counters. The
  // cache model is stateless.
  std::string StateName() const override { return "lwp/" + std::to_string(id_); }
  void Persist(StateIO& io) override {
    io.U64(busy_until_);
    busy_.Persist(io);
    io.Seq(intervals_, [&io](std::pair<Tick, Tick>& iv) {
      io.U64(iv.first);
      io.U64(iv.second);
    });
    screens_executed_.Persist(io);
    kernel_boots_.Persist(io);
  }

 private:
  int id_;
  LwpConfig config_;
  Dram* dram_;
  Crossbar* tier1_;
  CacheModel cache_;
  Tick busy_until_ = 0;
  BusyTracker busy_;
  std::vector<std::pair<Tick, Tick>> intervals_;
  Counter screens_executed_;
  Counter kernel_boots_;
};

}  // namespace fabacus

#endif  // SRC_CORE_LWP_H_

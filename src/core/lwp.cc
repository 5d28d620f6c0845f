#include "src/core/lwp.h"

#include <algorithm>

#include "src/sim/log.h"

namespace fabacus {

Lwp::Lwp(int id, const LwpConfig& config, Dram* dram, Crossbar* tier1,
         const CacheConfig& cache_config)
    : id_(id), config_(config), dram_(dram), tier1_(tier1), cache_(cache_config) {}

double Lwp::EffectiveIpc(double frac_mul, double frac_alu, double frac_ldst) const {
  // The binding FU class limits sustained issue: with fraction f of
  // instructions needing one of k units, at most k/f instructions retire per
  // cycle through that class.
  double bound = static_cast<double>(config_.issue_width);
  if (frac_mul > 0.0) {
    bound = std::min(bound, config_.mul_fus / frac_mul);
  }
  if (frac_alu > 0.0) {
    bound = std::min(bound, config_.alu_fus / frac_alu);
  }
  if (frac_ldst > 0.0) {
    bound = std::min(bound, config_.ldst_fus / frac_ldst);
  }
  return std::max(1.0, bound);
}

Lwp::ScreenTiming Lwp::ExecuteScreen(Tick now, const ScreenWork& work) {
  const Tick start = std::max(now, busy_until_);

  const double ipc = EffectiveIpc(work.frac_mul, work.frac_alu, work.frac_ldst);
  const double cycles = work.instructions / ipc;
  const Tick compute_ns = static_cast<Tick>(cycles / config_.clock_ghz + 0.5);

  // Memory stalls: traffic past L2 hits DDR3L through the tier-1 crossbar.
  const CacheTraffic traffic =
      cache_.Estimate(work.touched_bytes, work.window_bytes, work.distinct_bytes);
  Tick mem_ns = 0;
  if (traffic.l2_to_dram_bytes > 1.0) {
    const Tick dram_done = dram_->BulkAccess(start, traffic.l2_to_dram_bytes);
    const Tick xbar_done = tier1_->Transfer(start, id_ % tier1_->config().ports,
                                            tier1_->config().ports - 1,
                                            traffic.l2_to_dram_bytes);
    mem_ns = std::max(dram_done, xbar_done) - start;
  }

  const Tick longer = std::max(compute_ns, mem_ns);
  const Tick shorter = std::min(compute_ns, mem_ns);
  const Tick duration =
      longer + static_cast<Tick>((1.0 - config_.overlap_factor) * shorter);

  busy_until_ = start + std::max<Tick>(duration, 1);
  busy_.AddInterval(start, busy_until_);
  intervals_.emplace_back(start, busy_until_);
  screens_executed_.Add();

  ScreenTiming t;
  t.start = start;
  t.end = busy_until_;
  // Average FU occupancy while busy: issue-bound share of the window.
  const double compute_share =
      duration == 0 ? 0.0 : static_cast<double>(compute_ns) / duration;
  t.avg_fus_busy = std::min<double>(config_.issue_width, ipc) * compute_share;
  return t;
}

Tick Lwp::SleepTime(Tick window_start, Tick window_end) const {
  if (window_end <= window_start) {
    return 0;
  }
  Tick sleep = 0;
  Tick cursor = window_start;
  auto account_gap = [&](Tick gap_end) {
    if (gap_end > cursor) {
      const Tick gap = gap_end - cursor;
      if (gap > config_.psc_sleep_threshold) {
        sleep += gap - config_.psc_sleep_threshold;
      }
    }
  };
  for (const auto& [start, end] : intervals_) {
    if (end <= window_start) {
      continue;
    }
    if (start >= window_end) {
      break;
    }
    account_gap(std::min(start, window_end));
    cursor = std::max(cursor, std::min(end, window_end));
  }
  account_gap(window_end);
  return sleep;
}

Tick Lwp::BootKernel(Tick now) {
  const Tick start = std::max(now, busy_until_);
  busy_until_ = start + config_.boot_overhead;
  kernel_boots_.Add();
  // Boot time is occupancy but not useful execution; don't count it busy.
  return busy_until_;
}

void Lwp::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/screens_executed", &screens_executed_);
  reg->RegisterCounter(prefix + "/kernel_boots", &kernel_boots_);
  reg->RegisterGauge(prefix + "/busy_ns",
                     [this](Tick now) { return static_cast<double>(BusyTime(now)); });
  reg->RegisterGauge(prefix + "/utilization", [this](Tick now) { return Utilization(now); });
}

}  // namespace fabacus

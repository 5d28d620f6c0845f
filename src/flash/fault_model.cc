#include "src/flash/fault_model.h"

#include <algorithm>

#include "src/sim/log.h"

namespace fabacus {

FaultModel::FaultModel(const FaultConfig& config, int channels, int packages_per_channel,
                       std::uint64_t endurance_cycles, int ladder_depth)
    : config_(config),
      channels_(channels),
      packages_per_channel_(packages_per_channel),
      endurance_(static_cast<double>(std::max<std::uint64_t>(endurance_cycles, 1))),
      ladder_depth_(ladder_depth),
      rng_(config.seed),
      dead_(static_cast<std::size_t>(channels) * packages_per_channel, false) {
  FAB_CHECK_GT(ladder_depth_, 0);
  std::stable_sort(config_.plan.begin(), config_.plan.end(),
                   [](const FaultPlanEntry& a, const FaultPlanEntry& b) { return a.at < b.at; });
}

void FaultModel::Advance(Tick now) {
  while (next_plan_ < config_.plan.size() && config_.plan[next_plan_].at <= now) {
    const FaultPlanEntry& e = config_.plan[next_plan_];
    if (e.kind == FaultPlanEntry::Kind::kKillChannel) {
      KillChannel(e.channel);
    } else {
      KillDie(e.channel, e.package);
    }
    ++next_plan_;
  }
}

void FaultModel::KillDie(int channel, int package) {
  FAB_CHECK_GE(channel, 0);
  FAB_CHECK_LT(channel, channels_);
  FAB_CHECK_GE(package, 0);
  FAB_CHECK_LT(package, packages_per_channel_);
  const std::size_t idx =
      static_cast<std::size_t>(channel) * packages_per_channel_ + package;
  if (!dead_[idx]) {
    dead_[idx] = true;
    ++dead_dies_;
  }
}

void FaultModel::KillChannel(int channel) {
  for (int p = 0; p < packages_per_channel_; ++p) {
    KillDie(channel, p);
  }
}

bool FaultModel::IsDeadDie(int channel, int package) const {
  return dead_[static_cast<std::size_t>(channel) * packages_per_channel_ + package];
}

double FaultModel::WearScale(std::uint64_t wear) const {
  return static_cast<double>(wear) / endurance_;
}

ReadFault FaultModel::OnRead(std::uint64_t wear) {
  ReadFault f;
  const double p = std::clamp(
      config_.read_error_base + config_.read_error_wear_slope * WearScale(wear), 0.0, 1.0);
  if (p <= 0.0 || rng_.NextDouble() >= p) {
    return f;
  }
  // The nominal read crossed the correctable-bits threshold: walk the retry
  // ladder until one rung corrects or the ladder is exhausted.
  for (int rung = 1; rung <= ladder_depth_; ++rung) {
    f.rungs = rung;
    if (rng_.NextDouble() >= config_.retry_rung_fail) {
      return f;  // this rung corrected the data
    }
  }
  f.uncorrectable = true;
  return f;
}

bool FaultModel::ProgramFails(std::uint64_t wear) {
  if (config_.program_failure_rate <= 0.0) {
    return false;
  }
  const double p =
      std::clamp(config_.program_failure_rate * (1.0 + WearScale(wear)), 0.0, 1.0);
  return rng_.NextDouble() < p;
}

bool FaultModel::EraseFails(std::uint64_t wear) {
  if (config_.erase_failure_rate <= 0.0) {
    return false;
  }
  const double p =
      std::clamp(config_.erase_failure_rate * (1.0 + WearScale(wear)), 0.0, 1.0);
  return rng_.NextDouble() < p;
}

Tick FaultModel::StallTicks() {
  if (config_.die_stall_rate <= 0.0 || rng_.NextDouble() >= config_.die_stall_rate) {
    return 0;
  }
  return config_.die_stall_ns;
}

}  // namespace fabacus

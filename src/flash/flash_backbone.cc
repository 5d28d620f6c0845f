#include "src/flash/flash_backbone.h"

#include <algorithm>
#include <cstring>

#include "src/sim/log.h"

namespace fabacus {

namespace {
// Folds the legacy backbone seed into the fault stream so two backbones built
// with different seeds draw different fault schedules even under one config.
FaultConfig SeededFaultConfig(const NandConfig& config, std::uint64_t seed) {
  FaultConfig fc = config.fault;
  fc.seed ^= seed * 0x9e3779b97f4a7c15ULL;
  return fc;
}
}  // namespace

FlashBackbone::FlashBackbone(const NandConfig& config, std::uint64_t seed)
    : config_(config),
      faults_(SeededFaultConfig(config, seed), config.channels, config.packages_per_channel,
              config.endurance_cycles, config.read_retry_ladder),
      srio_(SrioConfig{}),
      data_(config.GroupBytes()),
      oob_(config.TotalGroups()),
      block_errors_(config.blocks_per_plane, 0),
      retry_rung_counts_(config.read_retry_ladder) {
  controllers_.reserve(config_.channels);
  for (int ch = 0; ch < config_.channels; ++ch) {
    controllers_.push_back(std::make_unique<FlashController>(config_, ch, &faults_));
  }
}

FlashBackbone::OpResult FlashBackbone::ReadGroup(Tick now, std::uint64_t group, void* out) {
  FAB_CHECK_LT(group, config_.TotalGroups());
  const GroupAddress addr = DecodeGroup(config_, group);
  OpResult r;
  Tick slices_done = 0;
  bool any_dead = false;
  for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
    FlashController& ctrl = *controllers_[ch];
    const FlashController::ReadSliceResult s = ctrl.ReadSlice(now, addr);
    slices_done = std::max(slices_done, s.done);
    r.retry_rungs = std::max(r.retry_rungs, s.rungs);
    if (s.uncorrectable) {
      r.status = WorseStatus(r.status, IoStatus::kUncorrectable);
    }
    any_dead = any_dead || s.dead_die;
  }
  if (r.retry_rungs > 0) {
    r.ecc_event = true;
    read_retries_.Add();
    retry_rung_counts_[r.retry_rungs - 1].Add();
    block_errors_[addr.block] += 1;
    r.status = WorseStatus(r.status, IoStatus::kDegraded);
  }
  if (any_dead) {
    dead_die_reads_.Add();
    r.status = WorseStatus(r.status, IoStatus::kDegraded);
  }
  if (r.status == IoStatus::kUncorrectable) {
    uncorrectable_reads_.Add();
  }
  r.done = srio_.Transfer(slices_done, static_cast<double>(config_.GroupBytes()));
  if (op_observer_) {
    op_observer_(now, r.done);
  }
  if (out != nullptr) {
    data_.Read(group * config_.GroupBytes(), out, config_.GroupBytes());
  }
  reads_.Add();
  bytes_read_ += static_cast<double>(config_.GroupBytes());
  return r;
}

FlashBackbone::OpResult FlashBackbone::ProgramGroup(Tick now, std::uint64_t group,
                                                    const void* data, std::uint32_t oob_tag) {
  FAB_CHECK_LT(group, config_.TotalGroups());
  const GroupAddress addr = DecodeGroup(config_, group);
  const Tick at_fmc = srio_.Transfer(now, static_cast<double>(config_.GroupBytes()));
  OpResult r;
  bool any_dead = false;
  bool failed = false;
  Tick done = 0;
  for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
    const FlashController::ProgramSliceResult s = controllers_[ch]->ProgramSlice(at_fmc, addr);
    done = std::max(done, s.done);
    failed = failed || s.failed;
    any_dead = any_dead || s.dead_die;
  }
  if (failed) {
    r.status = IoStatus::kProgramFailed;
    program_failures_.Add();
    // The page state is suspect: the caller re-programs elsewhere and retires
    // this block group. Contents stay zeroed so a stray read sees no data.
    data_.Erase(group * config_.GroupBytes(), config_.GroupBytes());
    oob_[group] = OobEntry{kOobNone, ++program_seq_};
  } else {
    if (data != nullptr) {
      data_.Write(group * config_.GroupBytes(), data, config_.GroupBytes());
    } else {
      data_.Erase(group * config_.GroupBytes(), config_.GroupBytes());
    }
    oob_[group] = OobEntry{oob_tag, ++program_seq_};
    // A program only becomes durable when every die reports completion;
    // power loss before `done` tears it (recovery must not trust the data).
    inflight_programs_.push_back(InflightProgram{group, done});
  }
  if (any_dead) {
    dead_die_programs_.Add();
    r.status = WorseStatus(r.status, IoStatus::kDegraded);
  }
  // Lazily prune completed entries so the in-flight list stays small.
  if (inflight_programs_.size() > 64) {
    inflight_programs_.erase(
        std::remove_if(inflight_programs_.begin(), inflight_programs_.end(),
                       [now](const InflightProgram& p) { return p.done <= now; }),
        inflight_programs_.end());
  }
  programs_.Add();
  bytes_programmed_ += static_cast<double>(config_.GroupBytes());
  if (op_observer_) {
    op_observer_(now, done);
  }
  r.done = done;
  return r;
}

FlashBackbone::OpResult FlashBackbone::EraseBlockGroup(Tick now, int block) {
  OpResult r;
  Tick done = 0;
  // One failure draw per superblock erase: a failed erase retires the whole
  // block group, so every die's block is fenced off together.
  const bool failed = faults_.EraseFails(BlockGroupWear(block));
  for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
    for (int pkg = 0; pkg < config_.packages_per_channel; ++pkg) {
      const FlashController::EraseSliceResult s =
          controllers_[ch]->EraseSlice(now, pkg, block, failed);
      done = std::max(done, s.done);
    }
  }
  // Drop the stored contents of every group in the superblock: all packages,
  // all pages at this block index.
  for (int pkg = 0; pkg < config_.packages_per_channel; ++pkg) {
    for (int page = 0; page < config_.pages_per_block; ++page) {
      const std::uint64_t g = EncodeGroup(config_, GroupAddress{pkg, block, page});
      data_.Erase(g * config_.GroupBytes(), config_.GroupBytes());
      oob_[g] = OobEntry{};
    }
  }
  block_errors_[block] = 0;
  erases_.Add();
  if (op_observer_) {
    op_observer_(now, done);
  }
  r.done = done;
  if (failed) {
    r.became_bad = true;
    erase_failures_.Add();
  }
  return r;
}

void FlashBackbone::PowerFail(Tick now) {
  for (const InflightProgram& p : inflight_programs_) {
    if (p.done > now) {
      data_.Erase(p.group * config_.GroupBytes(), config_.GroupBytes());
      oob_[p.group].tag = kOobTorn;  // keep the seq: recovery orders torn pages too
      torn_groups_.Add();
    }
  }
  inflight_programs_.clear();
}

bool FlashBackbone::IsBadBlockGroup(int block) const {
  for (const auto& ctrl : controllers_) {
    for (int pkg = 0; pkg < config_.packages_per_channel; ++pkg) {
      if (ctrl->package(pkg).IsBad(block)) {
        return true;
      }
    }
  }
  return false;
}

std::uint64_t FlashBackbone::MaxWear() const {
  std::uint64_t w = 0;
  for (const auto& ctrl : controllers_) {
    for (int p = 0; p < config_.packages_per_channel; ++p) {
      w = std::max(w, ctrl->package(p).max_wear());
    }
  }
  return w;
}

std::uint64_t FlashBackbone::TotalErases() const {
  std::uint64_t n = 0;
  for (const auto& ctrl : controllers_) {
    for (int p = 0; p < config_.packages_per_channel; ++p) {
      n += ctrl->package(p).total_erases();
    }
  }
  return n;
}

std::uint64_t FlashBackbone::BlockGroupWear(int block) const {
  std::uint64_t w = 0;
  for (const auto& ctrl : controllers_) {
    for (int p = 0; p < config_.packages_per_channel; ++p) {
      w = std::max(w, ctrl->package(p).wear(block));
    }
  }
  return w;
}

Tick FlashBackbone::ArrayBusyTime(Tick now) const {
  Tick busy = 0;
  for (const auto& ctrl : controllers_) {
    for (int p = 0; p < config_.packages_per_channel; ++p) {
      busy = std::max(busy, ctrl->package(p).BusyTime(now));
    }
  }
  return busy;
}

void FlashBackbone::set_bus_observer(FlashController::BusObserver obs) {
  for (auto& ctrl : controllers_) {
    ctrl->set_bus_observer(obs);
  }
}

void FlashBackbone::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/reads", &reads_);
  reg->RegisterCounter(prefix + "/programs", &programs_);
  reg->RegisterCounter(prefix + "/erases", &erases_);
  reg->RegisterCounter(prefix + "/read_retries", &read_retries_);
  reg->RegisterCounter(prefix + "/uncorrectable_reads", &uncorrectable_reads_);
  reg->RegisterCounter(prefix + "/program_failures", &program_failures_);
  reg->RegisterCounter(prefix + "/erase_failures", &erase_failures_);
  reg->RegisterCounter(prefix + "/dead_die_reads", &dead_die_reads_);
  reg->RegisterCounter(prefix + "/dead_die_programs", &dead_die_programs_);
  reg->RegisterCounter(prefix + "/torn_groups", &torn_groups_);
  for (std::size_t i = 0; i < retry_rung_counts_.size(); ++i) {
    reg->RegisterCounter(prefix + "/retry_rung" + std::to_string(i + 1),
                         &retry_rung_counts_[i]);
  }
  reg->RegisterGauge(prefix + "/dead_dies",
                     [this](Tick) { return static_cast<double>(faults_.dead_die_count()); });
  reg->RegisterGauge(prefix + "/bytes_read", [this](Tick) { return bytes_read_; });
  reg->RegisterGauge(prefix + "/bytes_programmed",
                     [this](Tick) { return bytes_programmed_; });
  for (std::size_t ch = 0; ch < controllers_.size(); ++ch) {
    controllers_[ch]->RegisterMetrics(reg, prefix + "/ch" + std::to_string(ch));
  }
}

void FlashBackbone::SaveState(StateWriter& w) const {
  srio_.SaveState(w);
  data_.SaveState(w);
  w.U64(oob_.size());
  for (const OobEntry& e : oob_) {
    w.U32(e.tag);
    w.U64(e.seq);
  }
  w.U64(program_seq_);
  w.VecU64(block_errors_);
  w.U64(inflight_programs_.size());
  for (const InflightProgram& p : inflight_programs_) {
    w.U64(p.group);
    w.U64(p.done);
  }
  reads_.SaveState(w);
  programs_.SaveState(w);
  erases_.SaveState(w);
  read_retries_.SaveState(w);
  uncorrectable_reads_.SaveState(w);
  program_failures_.SaveState(w);
  erase_failures_.SaveState(w);
  dead_die_reads_.SaveState(w);
  dead_die_programs_.SaveState(w);
  torn_groups_.SaveState(w);
  w.U64(retry_rung_counts_.size());
  for (const Counter& c : retry_rung_counts_) {
    c.SaveState(w);
  }
  w.F64(bytes_read_);
  w.F64(bytes_programmed_);
}

void FlashBackbone::LoadState(StateReader& r) {
  srio_.LoadState(r);
  data_.LoadState(r);
  const std::uint64_t oob_count = r.U64();
  if (r.ok() && oob_count != oob_.size()) {
    r.Fail("OOB record count mismatch");
    return;
  }
  for (OobEntry& e : oob_) {
    e.tag = r.U32();
    e.seq = r.U64();
  }
  program_seq_ = r.U64();
  std::vector<std::uint64_t> block_errors = r.VecU64();
  if (r.ok() && block_errors.size() != block_errors_.size()) {
    r.Fail("block error count mismatch");
    return;
  }
  if (r.ok()) {
    block_errors_ = std::move(block_errors);
  }
  const std::uint64_t inflight = r.U64();
  if (r.ok() && inflight > oob_.size()) {
    r.Fail("corrupt in-flight program count");
    return;
  }
  inflight_programs_.clear();
  for (std::uint64_t i = 0; i < inflight && r.ok(); ++i) {
    InflightProgram p;
    p.group = r.U64();
    p.done = r.U64();
    inflight_programs_.push_back(p);
  }
  reads_.LoadState(r);
  programs_.LoadState(r);
  erases_.LoadState(r);
  read_retries_.LoadState(r);
  uncorrectable_reads_.LoadState(r);
  program_failures_.LoadState(r);
  erase_failures_.LoadState(r);
  dead_die_reads_.LoadState(r);
  dead_die_programs_.LoadState(r);
  torn_groups_.LoadState(r);
  const std::uint64_t rungs = r.U64();
  if (r.ok() && rungs != retry_rung_counts_.size()) {
    r.Fail("retry ladder depth mismatch");
    return;
  }
  for (Counter& c : retry_rung_counts_) {
    c.LoadState(r);
  }
  bytes_read_ = r.F64();
  bytes_programmed_ = r.F64();
}

}  // namespace fabacus

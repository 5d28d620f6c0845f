#include "src/flash/flash_backbone.h"

#include <algorithm>
#include <cstring>

#include "src/sim/log.h"

namespace fabacus {

namespace {
// The backbone's fault stream: the configured seed mixed with a fixed
// constant. The constant keeps every seeded fault schedule, and with it the
// fault-injection results and goldens, as they are.
FaultConfig SeededFaultConfig(const NandConfig& config) {
  FaultConfig fc = config.fault;
  fc.seed ^= 0x9e3779b97f4a7c15ULL;
  return fc;
}
}  // namespace

FlashBackbone::FlashBackbone(const NandConfig& config)
    : config_(config),
      faults_(SeededFaultConfig(config), config.channels, config.packages_per_channel,
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
    std::push_heap(inflight_programs_.begin(), inflight_programs_.end(), LaterDone);
  }
  if (any_dead) {
    dead_die_programs_.Add();
    r.status = WorseStatus(r.status, IoStatus::kDegraded);
  }
  // Lazily prune completed entries so the in-flight list stays small: once
  // more than 64 are live, drop every program done by `now`.
  if (inflight_programs_.size() > 64) {
    while (!inflight_programs_.empty() && inflight_programs_.front().done <= now) {
      std::pop_heap(inflight_programs_.begin(), inflight_programs_.end(), LaterDone);
      inflight_programs_.pop_back();
    }
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

void FlashBackbone::Persist(StateIO& io) {
  srio_.Persist(io);
  data_.Persist(io);
  if (!io.Count(oob_.size(), "OOB record count")) {
    return;
  }
  for (OobEntry& e : oob_) {
    io.U32(e.tag);
    io.U64(e.seq);
  }
  io.U64(program_seq_);
  io.FixedVecU64(block_errors_, "block error count");
  // Sorted by (done, group), so the bytes never depend on the heap layout.
  std::vector<InflightProgram> inflight;
  if (io.saving()) {
    inflight = inflight_programs_;
    std::sort(inflight.begin(), inflight.end(),
              [](const InflightProgram& a, const InflightProgram& b) {
                return a.done != b.done ? a.done < b.done : a.group < b.group;
              });
  }
  io.Seq(inflight, [&io](InflightProgram& p) {
    io.U64(p.group);
    io.U64(p.done);
  });
  if (!io.saving()) {
    // Each entry is a distinct program, but a group programmed, erased and
    // programmed again within one prune window is listed twice: the bound is
    // the program count, not the group count.
    if (inflight.size() > program_seq_) {
      io.Fail("corrupt in-flight program count");
      return;
    }
    for (const InflightProgram& p : inflight) {
      if (p.group >= oob_.size()) {
        io.Fail("in-flight program group " + std::to_string(p.group) + " out of range");
        return;
      }
    }
    inflight_programs_ = std::move(inflight);
    std::make_heap(inflight_programs_.begin(), inflight_programs_.end(), LaterDone);
  }
  reads_.Persist(io);
  programs_.Persist(io);
  erases_.Persist(io);
  read_retries_.Persist(io);
  uncorrectable_reads_.Persist(io);
  program_failures_.Persist(io);
  erase_failures_.Persist(io);
  dead_die_reads_.Persist(io);
  dead_die_programs_.Persist(io);
  torn_groups_.Persist(io);
  if (!io.Count(retry_rung_counts_.size(), "retry ladder depth")) {
    return;
  }
  for (Counter& c : retry_rung_counts_) {
    c.Persist(io);
  }
  io.F64(bytes_read_);
  io.F64(bytes_programmed_);
}

}  // namespace fabacus

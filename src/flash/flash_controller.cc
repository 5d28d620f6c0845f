#include "src/flash/flash_controller.h"

#include <algorithm>
#include <string>

#include "src/sim/log.h"

namespace fabacus {

TagQueue::TagQueue(int depth) : depth_(depth) { FAB_CHECK_GT(depth, 0); }

Tick TagQueue::Acquire(Tick now) {
  acquires_.Add();
  if (static_cast<int>(inflight_.size()) < depth_) {
    return now;
  }
  const Tick earliest = inflight_.top();
  inflight_.pop();
  if (earliest > now) {
    wait_ns_.Add(earliest - now);
  }
  return std::max(now, earliest);
}

void TagQueue::Release(Tick completion) {
  FAB_CHECK_LT(static_cast<int>(inflight_.size()), depth_);
  inflight_.push(completion);
}

FlashController::FlashController(const NandConfig& config, int channel, FaultModel* faults)
    : config_(config),
      channel_(channel),
      faults_(faults),
      bus_("flash.ch" + std::to_string(channel), config.channel_gb_per_s,
           config.channel_cmd_overhead),
      tags_(config.controller_tag_queue_depth) {
  packages_.reserve(config.packages_per_channel);
  for (int p = 0; p < config.packages_per_channel; ++p) {
    packages_.push_back(std::make_unique<NandPackage>(config, channel, p));
  }
}

Tick FlashController::ReserveBus(Tick now, double bytes) {
  const BandwidthResource::Reservation r = bus_.Reserve(now, bytes);
  if (bus_observer_) {
    bus_observer_(channel_, r.start, r.end);
  }
  return r.end;
}

int FlashController::AlivePackage(int preferred) const {
  if (!faults_->IsDeadDie(channel_, preferred)) {
    return preferred;
  }
  for (int p = 0; p < config_.packages_per_channel; ++p) {
    if (!faults_->IsDeadDie(channel_, p)) {
      return p;
    }
  }
  return -1;
}

FlashController::ReadSliceResult FlashController::ReadSlice(Tick now, const GroupAddress& addr) {
  faults_->Advance(now);
  ReadSliceResult res;
  const int pkg = AlivePackage(addr.package);
  res.dead_die = pkg != addr.package;
  if (pkg < 0) {
    // Whole channel gone: nothing to sense, nothing crosses the bus. The
    // backbone degrades the op; the stored slice is reconstructed host-side.
    res.done = now + config_.channel_cmd_overhead;
    return res;
  }
  const Tick start = tags_.Acquire(now);
  // Command phase: a few bus cycles, modelled as pure latency so queued
  // commands to other dies are not serialized behind data transfers (the
  // FCFS bus reservation would otherwise forfeit die-level pipelining).
  const Tick cmd_done = start + config_.channel_cmd_overhead + faults_->StallTicks();
  const ReadFault fault = faults_->OnRead(packages_[pkg]->wear(addr.block));
  Tick read_done = packages_[pkg]->ReadPages(cmd_done, addr.block, addr.page);
  // Walk the retry ladder: rung k re-senses the page after k * read_retry_step
  // of reference-voltage adjustment, so correctable errors cost real time.
  for (int rung = 1; rung <= fault.rungs; ++rung) {
    read_done = packages_[pkg]->ReadPages(
        read_done + static_cast<Tick>(rung) * config_.read_retry_step, addr.block, addr.page);
  }
  res.rungs = fault.rungs;
  res.uncorrectable = fault.uncorrectable;
  const double slice_bytes =
      static_cast<double>(config_.planes_per_package) * config_.page_bytes;
  res.done = ReserveBus(read_done, slice_bytes);
  tags_.Release(res.done);
  return res;
}

FlashController::ProgramSliceResult FlashController::ProgramSlice(Tick now,
                                                                  const GroupAddress& addr) {
  faults_->Advance(now);
  ProgramSliceResult res;
  const Tick start = tags_.Acquire(now);
  const double slice_bytes =
      static_cast<double>(config_.planes_per_package) * config_.page_bytes;
  const Tick xfer_done = ReserveBus(start, slice_bytes);
  if (faults_->IsDeadDie(channel_, addr.package)) {
    // The transfer still crosses the bus before the die's absence is observed;
    // no cells change. The group's contents survive at reduced redundancy.
    res.dead_die = true;
    res.done = xfer_done;
    tags_.Release(res.done);
    return res;
  }
  const Tick program_start = xfer_done + faults_->StallTicks();
  res.failed = faults_->ProgramFails(packages_[addr.package]->wear(addr.block));
  res.done = packages_[addr.package]->ProgramPages(program_start, addr.block, addr.page);
  tags_.Release(res.done);
  return res;
}

FlashController::EraseSliceResult FlashController::EraseSlice(Tick now, int package, int block,
                                                              bool inject_failure) {
  faults_->Advance(now);
  EraseSliceResult res;
  if (faults_->IsDeadDie(channel_, package)) {
    res.done = now + config_.channel_cmd_overhead;
    return res;
  }
  const Tick start = tags_.Acquire(now);
  const Tick cmd_done = start + config_.channel_cmd_overhead;
  // The failure draw happens once per superblock in the backbone (an erase
  // failure retires the whole block group); the erase itself still executes
  // for timing and wear before the block is fenced off.
  res.failed = inject_failure;
  res.done = packages_[package]->EraseBlock(cmd_done, block);
  if (res.failed) {
    packages_[package]->MarkBad(block);
  }
  tags_.Release(res.done);
  return res;
}

void FlashController::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/tag_acquires", &tags_.acquires_counter());
  reg->RegisterCounter(prefix + "/tag_wait_ns", &tags_.wait_ns_counter());
  reg->RegisterGauge(prefix + "/bus_bytes_moved",
                     [this](Tick) { return bus_.bytes_moved(); });
  reg->RegisterGauge(prefix + "/bus_busy_ns",
                     [this](Tick now) { return static_cast<double>(BusBusyTime(now)); });
  for (std::size_t p = 0; p < packages_.size(); ++p) {
    packages_[p]->RegisterMetrics(reg, prefix + "/pkg" + std::to_string(p));
  }
}

void TagQueue::Persist(StateIO& io) {
  // In-flight completions in ascending order: deterministic, and a heap
  // rebuilt from them pops in the same order.
  std::vector<Tick> completions;
  if (io.saving()) {
    for (auto heap = inflight_; !heap.empty(); heap.pop()) {
      completions.push_back(heap.top());
    }
  }
  if (!io.Count(static_cast<std::uint64_t>(depth_), "tag queue depth")) {
    return;
  }
  io.Seq(completions, [&io](Tick& t) { io.U64(t); });
  if (completions.size() > static_cast<std::size_t>(depth_)) {
    io.Fail("tag queue depth mismatch");
    return;
  }
  if (!io.saving()) {
    inflight_ = decltype(inflight_)(completions.begin(), completions.end());
  }
  acquires_.Persist(io);
  wait_ns_.Persist(io);
}

std::string FlashController::StateName() const {
  return "flash/ch" + std::to_string(channel_);
}

void FlashController::Persist(StateIO& io) {
  bus_.Persist(io);
  tags_.Persist(io);
  if (!io.Count(packages_.size(), "package count")) {
    return;
  }
  for (auto& pkg : packages_) {
    pkg->Persist(io);
  }
}

}  // namespace fabacus

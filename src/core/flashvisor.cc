#include "src/core/flashvisor.h"

#include <algorithm>
#include <cstring>

#include "src/sim/log.h"

namespace fabacus {
namespace {

// Block groups held back from the logical capacity so garbage collection
// always has somewhere to migrate into (standard SSD over-provisioning).
constexpr double kOverProvisionFraction = 0.08;

}  // namespace

Flashvisor::Flashvisor(Simulator* sim, FlashBackbone* backbone, Dram* dram,
                       Scratchpad* scratchpad, const FlashvisorConfig& config)
    : sim_(sim),
      backbone_(backbone),
      dram_(dram),
      config_(config),
      core_("flashvisor"),
      map_(backbone->config(), scratchpad),
      blocks_(backbone->config()),
      inbound_(sim, "flashvisor.inq", config.queue_latency) {
  inbound_.set_sink([this](IoRequest req, MessageQueue<IoRequest>::Done done) {
    HandleIo(std::move(req), std::move(done));
  });
  EnsureActiveBlockGroup(0);
}

std::uint32_t Flashvisor::DataSlotsPerBlockGroup() const {
  // The last two slots of each block group hold the block's mapping summary.
  // (The paper places the summary in the first two pages; NAND program-order
  // discipline in our model requires the footer position — see DESIGN.md.)
  return static_cast<std::uint32_t>(backbone_->config().GroupsPerBlockGroup()) - 2;
}

// A block group is a superblock: block index `bg` across every package.
// Slot s maps to page s / P on package s % P, so consecutive slots stride
// the packages and the write point pipelines die programs.
std::uint32_t Flashvisor::GroupOfSlot(std::uint64_t bg, std::uint32_t slot) const {
  const auto& cfg = backbone_->config();
  const std::uint32_t package = slot % cfg.packages_per_channel;
  const std::uint32_t page = slot / cfg.packages_per_channel;
  return static_cast<std::uint32_t>(
      (bg * cfg.pages_per_block + page) * cfg.packages_per_channel + package);
}

std::uint64_t Flashvisor::LogicalCapacityBytes() const {
  const auto& cfg = backbone_->config();
  const double usable =
      static_cast<double>(cfg.TotalBlockGroups()) * (1.0 - kOverProvisionFraction);
  return static_cast<std::uint64_t>(usable) * DataSlotsPerBlockGroup() * cfg.GroupBytes();
}

std::uint64_t Flashvisor::AllocLogicalExtent(std::uint64_t bytes) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const std::uint64_t aligned = (bytes + group_bytes - 1) / group_bytes * group_bytes;
  FAB_CHECK_LE(logical_alloc_cursor_ + aligned, LogicalCapacityBytes())
      << "logical flash space exhausted";
  const std::uint64_t addr = logical_alloc_cursor_;
  logical_alloc_cursor_ += aligned;
  return addr;
}

void Flashvisor::set_tenants(TenantManager* tenants) {
  tenants_ = tenants;
  if (tenants_ != nullptr) {
    lock_.set_contention_observer([this](std::uint16_t waiter, std::uint16_t holder) {
      tenants_->RecordLockBlocked(static_cast<TenantId>(waiter),
                                  static_cast<TenantId>(holder));
    });
  } else {
    lock_.set_contention_observer(nullptr);
  }
}

bool Flashvisor::TryAllocTenantExtents(TenantId tenant, const std::vector<std::uint64_t>& sizes,
                                       std::vector<std::uint64_t>* addrs) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  if (tenants_ != nullptr) {
    std::uint64_t aligned_total = 0;
    for (std::uint64_t b : sizes) {
      aligned_total += (b + group_bytes - 1) / group_bytes * group_bytes;
    }
    if (!tenants_->TryChargeQuota(tenant, aligned_total, group_bytes)) {
      return false;
    }
  }
  addrs->clear();
  addrs->reserve(sizes.size());
  for (std::uint64_t b : sizes) {
    addrs->push_back(AllocLogicalExtent(b));
  }
  return true;
}

TenantId Flashvisor::SlotOwner(std::uint32_t phys_group) const {
  return phys_group < slot_tenant_.size()
             ? static_cast<TenantId>(slot_tenant_[phys_group])
             : kDefaultTenant;
}

void Flashvisor::SetSlotOwner(std::uint32_t phys_group, TenantId tenant) {
  // Attribution only matters (and only costs memory) in multi-tenant mode.
  if (tenants_ == nullptr || !tenants_->configured()) {
    return;
  }
  if (phys_group >= slot_tenant_.size()) {
    slot_tenant_.resize(phys_group + 1, 0);
  }
  slot_tenant_[phys_group] = tenant;
}

void Flashvisor::SubmitIo(IoRequest req) {
  FAB_CHECK(req.on_complete) << "IoRequest without completion callback";
  FAB_CHECK_EQ(req.flash_addr % backbone_->config().GroupBytes(), 0u)
      << "flash address must be group aligned";
  // Latency-class tenants ride the express lane of the inbound queue under
  // weighted-fair QoS (docs/QOS.md): their I/O is serviced ahead of queued
  // throughput-class requests instead of FIFO behind a noisy neighbor's
  // streaming loads.
  const bool express = tenants_ != nullptr && tenants_->configured() &&
                       tenants_->weighted_fair() && tenants_->latency_class(req.tenant);
  if (express) {
    FAB_CHECK(inbound_.TrySendPriority(std::move(req)))
        << "flashvisor inbound queue overflow";
    return;
  }
  FAB_CHECK(inbound_.TrySend(std::move(req))) << "flashvisor inbound queue overflow";
}

void Flashvisor::ReleaseLock(RangeLock::LockId id) { lock_.Release(id); }

void Flashvisor::RunSchedulingTask(std::function<void(Tick)> done) {
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), config_.scheduling_cost);
  sim_->ScheduleAt(iv.end, [done = std::move(done), end = iv.end]() { done(end); });
}

void Flashvisor::HandleIo(IoRequest req, std::function<void(Tick)> core_done) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const std::uint64_t n_groups = std::max<std::uint64_t>(
      1, (req.model_bytes + group_bytes - 1) / group_bytes);
  // Translation + issue occupies the Flashvisor core serially.
  const Tick service =
      config_.request_fixed_cost + static_cast<Tick>(n_groups) * config_.per_group_translate;
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), service);

  sim_->ScheduleAt(iv.end, [this, req = std::move(req), end = iv.end,
                            core_done = std::move(core_done)]() mutable {
    // The core is free for the next queue message once translation is done;
    // the flash operations themselves proceed in the controllers.
    core_done(end);
    if (req.type == IoRequest::Type::kRead) {
      DoRead(std::move(req));
    } else {
      DoWrite(std::move(req));
    }
  });
}

void Flashvisor::DoRead(IoRequest req) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const std::uint64_t first_lg = req.flash_addr / group_bytes;
  const std::uint64_t n_groups =
      std::max<std::uint64_t>(1, (req.model_bytes + group_bytes - 1) / group_bytes);
  const std::uint64_t last_lg = first_lg + n_groups - 1;

  // Shared state captured for the (possibly deferred) grant continuation.
  const TenantId tenant = req.tenant;
  const Tick acquire_time = sim_->Now();
  auto work = [this, req = std::move(req), first_lg, n_groups,
               group_bytes, acquire_time](RangeLock::LockId lock_id) mutable {
    const Tick start = sim_->Now();
    if (tenants_ != nullptr && start > acquire_time) {
      tenants_->RecordLockWait(req.tenant, start - acquire_time);
    }
    Tick flash_done = start;
    IoStatus status = IoStatus::kOk;
    std::uint8_t* const func = static_cast<std::uint8_t*>(req.func_data);
    for (std::uint64_t i = 0; i < n_groups; ++i) {
      const std::uint64_t lg = first_lg + i;
      const std::uint32_t phys = map_.Lookup(lg);
      const std::uint64_t req_off = i * group_bytes;
      const bool carries_data = func != nullptr && req_off < req.func_bytes;
      const std::uint64_t n = carries_data ? std::min(group_bytes, req.func_bytes - req_off) : 0;
      if (phys == MappingTable::kUnmapped) {
        // Never-written logical space reads back as zeros with no device op.
        if (carries_data) {
          std::memset(func + req_off, 0, n);
        }
        continue;
      }
      // A whole group lands straight in the kernel's buffer; only a partial
      // last group goes through a bounce buffer.
      std::vector<std::uint8_t> partial;
      void* out = nullptr;
      if (carries_data) {
        if (n < group_bytes) {
          partial.resize(group_bytes);
          out = partial.data();
        } else {
          out = func + req_off;
        }
      }
      FlashBackbone::OpResult r = backbone_->ReadGroup(start, phys, out);
      if (r.ecc_event) {
        ecc_events_.Add();
      }
      if (r.status == IoStatus::kUncorrectable) {
        uncorrectable_reads_.Add();
      }
      status = WorseStatus(status, r.status);
      flash_done = std::max(flash_done, r.done);
      if (!partial.empty()) {
        std::memcpy(func + req_off, partial.data(), n);
      }
    }
    reads_served_.Add();
    const bool hold = req.hold_lock;
    if (hold) {
      FAB_CHECK(req.lock_holder) << "hold_lock without lock_holder";
      req.lock_holder(lock_id);
    }
    // The DDR3L landing is booked at the flash-completion *event* (not at
    // the analytic future time) so memory bandwidth is granted in simulated
    // time order and concurrent kernel compute is not queued behind
    // transfers that have not started yet.
    const double model_bytes = static_cast<double>(req.model_bytes);
    sim_->ScheduleAt(flash_done, [this, model_bytes, cb = std::move(req.on_complete), hold,
                                  lock_id, status]() mutable {
      const Tick done = dram_->BulkAccess(sim_->Now(), model_bytes);
      sim_->ScheduleAt(done, [this, cb = std::move(cb), done, hold, lock_id, status]() {
        if (!hold) {
          lock_.Release(lock_id);
        }
        cb(done, status);
      });
    });
  };

  lock_.Acquire(first_lg, last_lg, LockMode::kRead,
                [work = std::move(work)](RangeLock::LockId id) mutable { work(id); }, tenant);
}

void Flashvisor::DoWrite(IoRequest req) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const std::uint64_t first_lg = req.flash_addr / group_bytes;
  const std::uint64_t n_groups =
      std::max<std::uint64_t>(1, (req.model_bytes + group_bytes - 1) / group_bytes);
  const std::uint64_t last_lg = first_lg + n_groups - 1;

  const TenantId tenant = req.tenant;
  const Tick acquire_time = sim_->Now();
  auto work = [this, req = std::move(req), first_lg, n_groups,
               group_bytes, acquire_time](RangeLock::LockId lock_id) mutable {
    const Tick start = sim_->Now();
    if (tenants_ != nullptr && start > acquire_time) {
      tenants_->RecordLockWait(req.tenant, start - acquire_time);
    }
    // Any foreground reclaim this write triggers stalls *this* tenant; the
    // dragged valid data is attributed to its own owners (docs/QOS.md).
    active_io_tenant_ = req.tenant;
    // Stage the data out of the kernel's data section in DDR3L.
    const Tick staged = dram_->BulkAccess(start, static_cast<double>(req.model_bytes));
    Tick flash_done = staged;
    IoStatus status = IoStatus::kOk;
    const std::uint8_t* const func = static_cast<const std::uint8_t*>(req.func_data);
    for (std::uint64_t i = 0; i < n_groups; ++i) {
      const std::uint64_t lg = first_lg + i;
      const std::uint64_t req_off = i * group_bytes;
      const bool carries_data = func != nullptr && req_off < req.func_bytes;
      // A whole group programs straight from the kernel's buffer; only a
      // partial last group is copied into a zero-padded bounce buffer.
      std::vector<std::uint8_t> partial;
      const void* payload = nullptr;
      if (carries_data) {
        const std::uint64_t n = std::min(group_bytes, req.func_bytes - req_off);
        if (n < group_bytes) {
          partial.resize(group_bytes);
          std::memcpy(partial.data(), func + req_off, n);
          payload = partial.data();
        } else {
          payload = func + req_off;
        }
      }
      // Program first, then map: the mapping only ever points at a group the
      // device accepted (a program-status fail re-allocates transparently).
      Tick prog_done = staged;
      const std::uint32_t phys = ProgramReliable(
          staged, static_cast<std::uint32_t>(lg), payload, &prog_done, &status);
      const std::uint32_t old = map_.Update(lg, phys);
      if (old != MappingTable::kUnmapped && tenants_ != nullptr) {
        // Overwrite garbage is the overwriter's doing, whoever owned the
        // stale copy: GC pressure is charged to who creates it.
        tenants_->RecordGarbageCreated(req.tenant, 1);
      }
      SetSlotOwner(phys, req.tenant);
      flash_done = std::max(flash_done, prog_done);
    }
    active_io_tenant_ = kDefaultTenant;
    write_drain_horizon_ = std::max(write_drain_horizon_, flash_done);
    writes_served_.Add();
    // The caller sees completion once the DDR3L write buffer holds the data
    // — but the buffer is finite: acceptance stalls until enough earlier
    // writes have programmed out. The range lock is held until the programs
    // land so overlapping readers see the paper's blocking behaviour.
    const Tick accepted = AdmitWrite(staged, req.model_bytes, flash_done);
    sim_->ScheduleAt(accepted, [cb = std::move(req.on_complete), accepted, status]() {
      cb(accepted, status);
    });
    sim_->ScheduleAt(flash_done, [this, lock_id]() { lock_.Release(lock_id); });
  };

  lock_.Acquire(first_lg, last_lg, LockMode::kWrite,
                [work = std::move(work)](RangeLock::LockId id) mutable { work(id); }, tenant);
}

Tick Flashvisor::AdmitWrite(Tick staged, std::uint64_t bytes, Tick flash_done) {
  Tick accept = staged;
  // Reclaim buffer space from writes whose programs already landed.
  while (!write_buffer_.empty() && write_buffer_.top().first <= accept) {
    write_buffer_used_ -= write_buffer_.top().second;
    write_buffer_.pop();
  }
  const std::uint64_t cap = config_.write_buffer_bytes;
  if (bytes >= cap) {
    // Larger than the whole buffer: the request effectively streams to
    // flash; acceptance tracks its own drain.
    accept = std::max(accept, flash_done);
  } else {
    while (write_buffer_used_ + bytes > cap && !write_buffer_.empty()) {
      accept = std::max(accept, write_buffer_.top().first);
      write_buffer_used_ -= write_buffer_.top().second;
      write_buffer_.pop();
    }
  }
  write_buffer_.push({flash_done, bytes});
  write_buffer_used_ += bytes;
  return accept;
}

void Flashvisor::EnsureActiveBlockGroup(Tick now) {
  while (active_bg_ == BlockManager::kNone) {
    const std::uint64_t bg = blocks_.AllocBlockGroup();
    if (bg == BlockManager::kNone) {
      // Background reclamation fell behind the write stream: reclaim inline
      // (the queued device time is the foreground-GC stall the paper's
      // Storengine design exists to avoid).
      ForegroundReclaim(now);
      continue;
    }
    if (backbone_->IsBadBlockGroup(static_cast<int>(bg))) {
      blocks_.Retire(bg);
      continue;
    }
    active_bg_ = bg;
    active_slot_ = 0;
  }
  if (blocks_.free_count() < config_.gc_low_watermark && gc_trigger_) {
    gc_trigger_(now);
  }
}

void Flashvisor::ForegroundReclaim(Tick now) {
  FAB_CHECK_LT(reclaim_depth_, 8) << "flash capacity exhausted (reclaim cannot make progress)";
  ++reclaim_depth_;
  const std::uint64_t victim = blocks_.PickVictim();
  FAB_CHECK_NE(victim, BlockManager::kNone) << "no sealed block groups to reclaim";
  foreground_reclaims_.Add();
  // Inline reclamation monopolizes the Flashvisor core (the overhead the
  // Storengine split exists to avoid): queued requests wait behind it.
  core_.Occupy(now, 20 * kUs);
  if (tenants_ != nullptr) {
    // The stall lands on whichever tenant's write forced the inline reclaim.
    tenants_->RecordGcStall(active_io_tenant_, 20 * kUs);
  }
  // This runs atomically within one simulation event (Flashvisor's own
  // context), so no kernel mapping can interleave: the range lock is not
  // needed here. Live groups migrate to the active write point; device time
  // queues naturally in the controllers, stalling subsequent writes.
  // PickVictim took the victim off the used pool, as Relocate requires.
  const std::uint32_t data_slots = DataSlotsPerBlockGroup();
  for (std::uint32_t slot = 0; slot < data_slots; ++slot) {
    const std::uint32_t phys_old = GroupOfSlot(victim, slot);
    if (map_.ReverseLookup(phys_old) == MappingTable::kUnmapped) {
      continue;
    }
    const Relocation moved = Relocate(phys_old, now);
    if (moved.read_status == IoStatus::kUncorrectable) {
      uncorrectable_reads_.Add();
    }
    write_drain_horizon_ = std::max(write_drain_horizon_, moved.done);
  }
  // The per-package busy horizon already serializes this erase behind the
  // reads above, so issuing it "now" is safe.
  ReturnErased(victim, backbone_->EraseBlockGroup(now, static_cast<int>(victim)).became_bad);
  --reclaim_depth_;
}

Flashvisor::Relocation Flashvisor::Relocate(std::uint32_t phys_old, Tick at) {
  const std::uint32_t lg = map_.ReverseLookup(phys_old);
  FAB_CHECK_NE(lg, MappingTable::kUnmapped) << "relocating a group with no live data";
  // Read for timing only, then program straight from the stored bytes.
  const FlashBackbone::OpResult rd = backbone_->ReadGroup(at, phys_old, nullptr);
  Tick done = rd.done;
  const std::uint32_t phys_new =
      ProgramReliable(rd.done, lg, backbone_->GroupData(phys_old), &done);
  map_.Update(lg, phys_new);
  if (tenants_ != nullptr && tenants_->configured()) {
    const TenantId owner = SlotOwner(phys_old);
    tenants_->RecordGcDrag(owner, 1);
    SetSlotOwner(phys_new, owner);
  }
  return {rd.status, done};
}

void Flashvisor::ReturnErased(std::uint64_t bg, bool erase_failed) {
  FAB_CHECK_EQ(map_.LiveCount(bg), 0u) << "erase of block group with valid data";
  if (erase_failed) {
    blocks_.Retire(bg);
  } else {
    blocks_.OnErased(bg);
  }
}

std::uint32_t Flashvisor::ProgramReliable(Tick now, std::uint32_t oob_tag, const void* payload,
                                          Tick* done_out, IoStatus* status_out) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint32_t phys = AllocatePhysicalGroup(now);
    FlashBackbone::OpResult r = backbone_->ProgramGroup(now, phys, payload, oob_tag);
    *done_out = std::max(*done_out, r.done);
    if (r.status != IoStatus::kProgramFailed) {
      if (status_out != nullptr) {
        *status_out = WorseStatus(*status_out, r.status);
      }
      return phys;
    }
    // Program-status fail: abandon the whole active block group — its
    // remaining pages are suspect — and re-program in a fresh one. Slots that
    // already hold valid data stay readable in the retired group until the
    // patrol scrubber migrates them out.
    program_failure_reallocs_.Add();
    RetireActiveBlockGroup();
  }
  FAB_CHECK(false) << "programs keep failing across fresh block groups";
  return 0;
}

void Flashvisor::RetireActiveBlockGroup() {
  FAB_CHECK_NE(active_bg_, BlockManager::kNone);
  blocks_.Retire(active_bg_);
  retired_block_groups_.Add();
  active_bg_ = BlockManager::kNone;
  active_slot_ = 0;
}

std::uint32_t Flashvisor::AllocatePhysicalGroup(Tick now) {
  // Lazy seal: once the previous allocation handed out the last data slot,
  // the caller's program for it has been issued by the time the *next*
  // allocation arrives — only then may the footer pages program (NAND blocks
  // must be written strictly in page order).
  if (active_bg_ != BlockManager::kNone && active_slot_ >= DataSlotsPerBlockGroup()) {
    SealActiveBlockGroup(now);
  }
  EnsureActiveBlockGroup(now);
  const std::uint32_t phys = GroupOfSlot(active_bg_, active_slot_);
  ++active_slot_;
  return phys;
}

void Flashvisor::SealActiveBlockGroup(Tick now) {
  const auto& cfg = backbone_->config();
  // Build the block summary: the logical group currently stored in each data
  // slot (kUnmapped for slots already invalidated). Two footer slots hold it.
  const std::uint32_t data_slots = DataSlotsPerBlockGroup();
  std::vector<std::uint32_t> summary(data_slots);
  for (std::uint32_t s = 0; s < data_slots; ++s) {
    summary[s] = map_.ReverseLookup(GroupOfSlot(active_bg_, s));
  }
  // Footer slot f holds the summary's f-th GroupBytes() of bytes, zero-padded.
  // One group-sized buffer builds each slot in turn: ProgramGroup copies it
  // before it returns.
  const std::uint64_t group_bytes = cfg.GroupBytes();
  const std::uint64_t summary_bytes = summary.size() * sizeof(std::uint32_t);
  const auto* summary_data = reinterpret_cast<const std::uint8_t*>(summary.data());
  std::vector<std::uint8_t> slot(group_bytes);
  bool failed = false;
  for (std::uint32_t f = 0; f < 2; ++f) {
    const std::uint64_t off = std::min<std::uint64_t>(f * group_bytes, summary_bytes);
    const std::uint64_t n = std::min(group_bytes, summary_bytes - off);
    std::memcpy(slot.data(), summary_data + off, n);
    std::memset(slot.data() + n, 0, group_bytes - n);
    const std::uint32_t phys = GroupOfSlot(active_bg_, data_slots + f);
    FlashBackbone::OpResult r = backbone_->ProgramGroup(now, phys, slot.data(), kOobFooter);
    failed = failed || r.status == IoStatus::kProgramFailed;
    write_drain_horizon_ = std::max(write_drain_horizon_, r.done);
  }
  if (failed) {
    // A block whose footer won't program is not trustworthy as a sealed GC
    // candidate; retire it (the data slots remain readable for the scrubber).
    RetireActiveBlockGroup();
    return;
  }
  blocks_.SealBlockGroup(active_bg_);
  active_bg_ = BlockManager::kNone;
  active_slot_ = 0;
}

void Flashvisor::OnPowerLoss() {
  map_.Clear();
  blocks_.Reset();
  while (!write_buffer_.empty()) {
    write_buffer_.pop();
  }
  write_buffer_used_ = 0;
  active_bg_ = BlockManager::kNone;
  active_slot_ = 0;
  write_drain_horizon_ = 0;
  reclaim_depth_ = 0;
  lock_.Reset();
  inbound_.Reset();
}

Flashvisor::RecoveryReport Flashvisor::RecoverFromFlash(Tick now) {
  const auto& cfg = backbone_->config();
  const std::uint64_t group_bytes = cfg.GroupBytes();
  const std::uint64_t total_bgs = cfg.TotalBlockGroups();
  const std::uint64_t journal_groups = (map_.table_bytes() + group_bytes - 1) / group_bytes;
  RecoveryReport rep;
  rep.done = now;

  // Phase 1: locate the newest *complete* journal. One timed read per block
  // group probes its first page; the OOB records tell us what lives there.
  // Dumps are serialized, so the highest-sequence complete journal wins (a
  // torn dump falls back to its still-intact predecessor).
  for (std::uint64_t bg = 0; bg < total_bgs; ++bg) {
    const std::uint32_t g0 = GroupOfSlot(bg, 0);
    FlashBackbone::OpResult r = backbone_->ReadGroup(now, g0, nullptr);
    rep.done = std::max(rep.done, r.done);
    if (backbone_->Oob(g0).tag != kOobJournal) {
      continue;
    }
    bool complete = true;
    std::uint64_t seq = 0;
    for (std::uint64_t j = 0; j < journal_groups; ++j) {
      const FlashBackbone::OobEntry& e =
          backbone_->Oob(GroupOfSlot(bg, static_cast<std::uint32_t>(j)));
      complete = complete && e.tag == kOobJournal;
      seq = std::max(seq, e.seq);
    }
    if (complete && (!rep.found_journal || seq > rep.journal_seq)) {
      rep.found_journal = true;
      rep.journal_bg = bg;
      rep.journal_seq = seq;
    }
  }

  // Phase 2: restore the snapshot (timed reads of the journal payload).
  map_.Clear();
  if (rep.found_journal) {
    std::vector<std::uint8_t> snapshot(journal_groups * group_bytes);
    for (std::uint64_t j = 0; j < journal_groups; ++j) {
      FlashBackbone::OpResult r =
          backbone_->ReadGroup(now, GroupOfSlot(rep.journal_bg, static_cast<std::uint32_t>(j)),
                               snapshot.data() + j * group_bytes);
      rep.done = std::max(rep.done, r.done);
    }
    snapshot.resize(map_.table_bytes());
    map_.Restore(snapshot);
    rep.restored_entries = map_.mapped_count();
  }

  // Phase 3: replay post-journal data programs in device order. The OOB
  // sequence numbers give the exact program order, so later writes to the
  // same logical group supersede earlier ones just as they did pre-crash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> replay;  // (seq, phys)
  for (std::uint64_t g = 0; g < cfg.TotalGroups(); ++g) {
    const FlashBackbone::OobEntry& e = backbone_->Oob(g);
    if (e.tag == kOobTorn) {
      ++rep.torn_groups;
      continue;
    }
    if (e.tag < kOobReservedFloor && e.seq > rep.journal_seq) {
      replay.emplace_back(e.seq, static_cast<std::uint32_t>(g));
    }
  }
  std::sort(replay.begin(), replay.end());
  for (const auto& entry : replay) {
    const std::uint32_t phys = entry.second;
    map_.Update(backbone_->Oob(phys).tag, phys);
    ++rep.replayed_groups;
  }

  // Phase 4: integrity check — a mapping is only kept if its target still
  // carries the matching OOB tag (not erased, torn, or re-purposed since the
  // journal). Anything else is reported lost rather than served as garbage.
  for (std::uint64_t lg = 0; lg < map_.entries(); ++lg) {
    const std::uint32_t phys = map_.Lookup(lg);
    if (phys == MappingTable::kUnmapped) {
      continue;
    }
    if (backbone_->Oob(phys).tag != static_cast<std::uint32_t>(lg)) {
      map_.Unmap(lg);
      ++rep.lost_groups;
    }
  }

  // Phase 5: rebuild the block-group pools from device state. Any group with
  // a programmed page cannot be handed out as free (NAND program-order
  // discipline); it becomes a sealed GC candidate instead. Live data needs
  // no rebuild: the mapping table's live counts followed phases 2-4.
  blocks_.Reset();
  for (std::uint64_t bg = 0; bg < total_bgs; ++bg) {
    if (backbone_->IsBadBlockGroup(static_cast<int>(bg))) {
      FAB_CHECK(blocks_.TakeFree(bg));
      blocks_.Retire(bg);
      retired_block_groups_.Add();
      continue;
    }
    bool programmed = false;
    for (std::uint64_t s = 0; s < cfg.GroupsPerBlockGroup() && !programmed; ++s) {
      programmed = backbone_->Oob(GroupOfSlot(bg, static_cast<std::uint32_t>(s))).tag !=
                   kOobUnwritten;
    }
    if (!programmed) {
      continue;  // stays in the free pool
    }
    FAB_CHECK(blocks_.TakeFree(bg));
    if (rep.found_journal && bg == rep.journal_bg) {
      // The live journal: held out of both pools, exactly as during normal
      // operation (the next dump erases and frees it).
      continue;
    }
    blocks_.SealBlockGroup(bg);
  }
  return rep;
}

void Flashvisor::Persist(StateIO& io) {
  if (io.saving()) {
    FAB_CHECK(inbound_.Idle()) << "flashvisor inbound queue not idle at snapshot";
  }
  // The write-buffer min-heap as ascending (drain tick, bytes) pairs:
  // deterministic order, trivially rebuildable.
  std::vector<std::pair<Tick, std::uint64_t>> pending;
  if (io.saving()) {
    for (auto heap = write_buffer_; !heap.empty(); heap.pop()) {
      pending.push_back(heap.top());
    }
  }
  io.Seq(pending, [&io](std::pair<Tick, std::uint64_t>& e) {
    io.U64(e.first);
    io.U64(e.second);
  });
  std::uint64_t used = 0;
  for (const auto& e : pending) {
    used += e.second;
  }
  io.U64(write_buffer_used_);
  if (io.ok() && used != write_buffer_used_) {
    io.Fail("write-buffer byte accounting mismatch");
    return;
  }
  if (!io.saving()) {
    write_buffer_ = decltype(write_buffer_)(pending.begin(), pending.end());
    reclaim_depth_ = 0;
  }
  io.U64(active_bg_);
  io.U32(active_slot_);
  if ((active_bg_ != BlockManager::kNone && active_bg_ >= blocks_.total_block_groups()) ||
      active_slot_ > DataSlotsPerBlockGroup()) {
    io.Fail("flashvisor: active block group out of range");
    return;
  }
  io.U64(logical_alloc_cursor_);
  io.U64(write_drain_horizon_);
  core_.Persist(io);
  inbound_.Persist(io);
  reads_served_.Persist(io);
  writes_served_.Persist(io);
  ecc_events_.Persist(io);
  uncorrectable_reads_.Persist(io);
  program_failure_reallocs_.Persist(io);
  retired_block_groups_.Persist(io);
  foreground_reclaims_.Persist(io);
  // v2: sparse per-physical-group tenant ownership (non-default only,
  // ascending physical group) for GC attribution across resume.
  std::uint64_t owned = 0;
  for (std::uint16_t t : slot_tenant_) {
    if (t != 0) {
      ++owned;
    }
  }
  io.U64(owned);
  if (io.saving()) {
    for (std::uint32_t i = 0; i < slot_tenant_.size(); ++i) {
      if (slot_tenant_[i] != 0) {
        std::uint32_t t = slot_tenant_[i];
        io.U32(i);
        io.U32(t);
      }
    }
    return;
  }
  slot_tenant_.clear();
  for (std::uint64_t i = 0; i < owned && io.ok(); ++i) {
    std::uint32_t phys = 0;
    std::uint32_t t = 0;
    io.U32(phys);
    io.U32(t);
    if (t > 65535 || phys >= map_.entries()) {
      io.Fail("flashvisor: slot tenant out of range");
      return;
    }
    if (phys >= slot_tenant_.size()) {
      slot_tenant_.resize(phys + 1, 0);
    }
    slot_tenant_[phys] = static_cast<std::uint16_t>(t);
  }
}

void Flashvisor::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/reads_served", &reads_served_);
  reg->RegisterCounter(prefix + "/writes_served", &writes_served_);
  reg->RegisterCounter(prefix + "/ecc_events", &ecc_events_);
  reg->RegisterCounter(prefix + "/uncorrectable_reads", &uncorrectable_reads_);
  reg->RegisterCounter(prefix + "/program_failure_reallocs", &program_failure_reallocs_);
  reg->RegisterCounter(prefix + "/retired_block_groups", &retired_block_groups_);
  reg->RegisterCounter(prefix + "/foreground_reclaims", &foreground_reclaims_);
  reg->RegisterGauge(prefix + "/write_buffer_used_bytes",
                     [this](Tick) { return static_cast<double>(write_buffer_used_); });
  reg->RegisterGauge(prefix + "/core_busy_ns",
                     [this](Tick now) { return static_cast<double>(core_.BusyTime(now)); });
  reg->RegisterGauge(prefix + "/core_utilization",
                     [this](Tick now) { return core_.Utilization(now); });
}

}  // namespace fabacus

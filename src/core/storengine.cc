#include "src/core/storengine.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/log.h"

namespace fabacus {

Storengine::Storengine(Simulator* sim, Flashvisor* flashvisor, const StorengineConfig& config)
    : sim_(sim), fv_(flashvisor), config_(config), core_("storengine") {}

void Storengine::Start() {
  running_ = true;
  // A maintenance pass interrupted by a crash never completes its
  // continuation; restart with a clean slate.
  maintenance_in_progress_ = false;
  fv_->set_gc_trigger([this](Tick) {
    if (running_ && !maintenance_in_progress_ && GcCanReclaim()) {
      RunGcPass([](Tick) {});
    }
  });
  if (config_.enable_background_gc) {
    ScheduleNextGc();
  }
  ScheduleNextJournal();
  ScheduleNextScrub();
}

void Storengine::ScheduleNextGc() {
  if (!running_) {
    return;
  }
  sim_->ScheduleDaemon(config_.gc_interval, [this, epoch = epoch_]() {
    if (epoch != epoch_ || !running_) {
      return;  // stopped (or stopped and restarted) since this was scheduled
    }
    if (!maintenance_in_progress_ && fv_->blocks().free_count() < config_.gc_high_watermark &&
        GcCanReclaim()) {
      RunGcPass([this](Tick) { ScheduleNextGc(); });
    } else {
      ScheduleNextGc();
    }
  });
}

void Storengine::ScheduleNextJournal() {
  if (!running_) {
    return;
  }
  sim_->ScheduleDaemon(config_.journal_interval, [this, epoch = epoch_]() {
    if (epoch != epoch_ || !running_) {
      return;
    }
    RunJournalDump([this](Tick) { ScheduleNextJournal(); });
  });
}

void Storengine::ScheduleNextScrub() {
  if (!running_) {
    return;
  }
  sim_->ScheduleDaemon(config_.scrub_interval, [this, epoch = epoch_]() {
    if (epoch != epoch_ || !running_) {
      return;
    }
    if (!maintenance_in_progress_) {
      RunScrubPass([this](Tick) { ScheduleNextScrub(); });
    } else {
      ScheduleNextScrub();
    }
  });
}

void Storengine::RunGcPass(std::function<void(Tick)> done) {
  FAB_CHECK(!maintenance_in_progress_) << "overlapping maintenance passes";
  const std::uint64_t victim = fv_->blocks().PickVictim();
  if (victim == BlockManager::kNone) {
    done(sim_->Now());
    return;
  }
  maintenance_in_progress_ = true;
  gc_passes_.Add();
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), config_.pass_fixed_cpu);
  // Trace the whole pass (orchestration + migrations + erase) on GC track 0.
  auto traced = [this, pass_start = iv.start, done = std::move(done)](Tick t) mutable {
    if (trace_ != nullptr) {
      trace_->Add(TraceTag::kGc, pass_start, t, 1.0, /*track=*/0);
    }
    done(t);
  };
  // Walk the victim's data slots sequentially, migrating each valid group.
  sim_->ScheduleAt(iv.end, [this, victim, done = std::move(traced)]() mutable {
    MigrateRange(victim, 0, sim_->Now(), &groups_migrated_,
                 [this, victim, done = std::move(done)](Tick barrier) mutable {
                   FinishVictim(victim, barrier, std::move(done));
                 });
  });
}

bool Storengine::GcCanReclaim() const {
  const std::uint32_t data_slots = fv_->DataSlotsPerBlockGroup();
  for (const std::uint64_t bg : fv_->blocks().used()) {
    if (fv_->blocks().ValidCount(bg) < data_slots) {
      return true;
    }
  }
  return false;
}

std::uint64_t Storengine::PickScrubVictim(bool* retired_mode) const {
  // Priority 1: data stranded in retired block groups (program-failure
  // abandonment leaves valid groups behind in a block that can never erase).
  const std::uint64_t total = fv_->blocks().total_block_groups();
  for (std::uint64_t bg = 0; bg < total; ++bg) {
    if (fv_->blocks().IsRetired(bg) && fv_->blocks().ValidCount(bg) > 0) {
      *retired_mode = true;
      return bg;
    }
  }
  // Priority 2: sealed block groups past the wear/error refresh thresholds.
  const auto& cfg = fv_->backbone().config();
  const auto wear_limit = static_cast<std::uint64_t>(
      config_.scrub_wear_ratio * static_cast<double>(cfg.endurance_cycles));
  for (const std::uint64_t bg : fv_->blocks().used()) {
    const int b = static_cast<int>(bg);
    if (fv_->backbone().BlockGroupWear(b) >= wear_limit ||
        fv_->backbone().BlockGroupErrors(b) >= config_.scrub_error_threshold) {
      *retired_mode = false;
      return bg;
    }
  }
  *retired_mode = false;
  return BlockManager::kNone;
}

void Storengine::RunScrubPass(std::function<void(Tick)> done) {
  FAB_CHECK(!maintenance_in_progress_) << "overlapping maintenance passes";
  bool retired_mode = false;
  const std::uint64_t victim = PickScrubVictim(&retired_mode);
  if (victim == BlockManager::kNone) {
    done(sim_->Now());
    return;
  }
  maintenance_in_progress_ = true;
  scrub_passes_.Add();
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), config_.pass_fixed_cpu);
  // Scrub activity shares the GC trace tag on its own track (2).
  auto traced = [this, pass_start = iv.start, done = std::move(done)](Tick t) mutable {
    if (trace_ != nullptr) {
      trace_->Add(TraceTag::kGc, pass_start, t, 1.0, /*track=*/2);
    }
    done(t);
  };
  if (!retired_mode) {
    // Pull the victim out of the GC candidate pool; it is erased and freed
    // (or retired) when the migration finishes, like a GC victim.
    FAB_CHECK(fv_->blocks().TakeUsed(victim));
  }
  sim_->ScheduleAt(iv.end, [this, victim, retired_mode, done = std::move(traced)]() mutable {
    MigrateRange(victim, 0, sim_->Now(), &scrub_migrations_,
                 [this, victim, retired_mode, done = std::move(done)](Tick barrier) mutable {
                   if (retired_mode) {
                     // The block group stays retired; its data now lives
                     // elsewhere and nothing references it again.
                     maintenance_in_progress_ = false;
                     done(barrier);
                     return;
                   }
                   FinishVictim(victim, barrier, std::move(done));
                 });
  });
}

void Storengine::MigrateRange(std::uint64_t victim, std::uint32_t slot, Tick barrier,
                              Counter* migrated, std::function<void(Tick)> finish) {
  const std::uint32_t data_slots = fv_->DataSlotsPerBlockGroup();
  if (slot >= data_slots) {
    finish(barrier);
    return;
  }
  if (!fv_->blocks().IsValid(victim, slot)) {
    MigrateRange(victim, slot + 1, barrier, migrated, std::move(finish));
    return;
  }
  const std::uint32_t phys_old = fv_->GroupOfSlot(victim, slot);
  const std::uint32_t lg = fv_->mapping().ReverseLookup(phys_old);
  if (lg == MappingTable::kUnmapped) {
    // Stale validity (should not happen; defensive).
    fv_->blocks().MarkInvalid(victim, slot);
    MigrateRange(victim, slot + 1, barrier, migrated, std::move(finish));
    return;
  }
  // Lock the logical group so in-flight kernel mappings can't race the move
  // (paper: "locking the address ranges that Storengine generates ... for the
  // block reclaim is necessary").
  fv_->range_lock().Acquire(
      lg, lg, LockMode::kWrite,
      [this, victim, slot, phys_old, lg, barrier, migrated,
       finish = std::move(finish)](RangeLock::LockId lock_id) mutable {
        const Tick now = std::max(sim_->Now(), barrier);
        // Re-validate after a potential wait: the kernel may have rewritten
        // the logical group while we queued, invalidating this slot.
        if (fv_->mapping().Lookup(lg) != phys_old || !fv_->blocks().IsValid(victim, slot)) {
          fv_->range_lock().Release(lock_id);
          MigrateRange(victim, slot + 1, barrier, migrated, std::move(finish));
          return;
        }
        const SerialCore::Interval iv = core_.Occupy(now, config_.per_group_cpu);
        // Read for timing, then program straight from the stored bytes. The
        // source cannot be erased by a foreground reclaim nested in
        // ProgramReliable: the victim left the candidate list (PickVictim /
        // TakeUsed) or is retired, so no reclaim picks it.
        FlashBackbone& bb = fv_->backbone();
        FlashBackbone::OpResult rd = bb.ReadGroup(iv.end, phys_old, nullptr);
        Tick prog_done = rd.done;
        const std::uint32_t phys_new =
            fv_->ProgramReliable(rd.done, lg, bb.GroupData(phys_old), &prog_done);
        fv_->mapping().Update(lg, phys_new);
        fv_->blocks().MarkInvalid(victim, slot);
        fv_->blocks().MarkValid(fv_->BlockGroupOf(phys_new), fv_->SlotOf(phys_new));
        fv_->NoteMigration(phys_old, phys_new);
        migrated->Add();
        const Tick slot_done = prog_done;
        sim_->ScheduleAt(slot_done, [this, victim, slot, slot_done, lock_id, migrated,
                                     finish = std::move(finish)]() mutable {
          fv_->range_lock().Release(lock_id);
          MigrateRange(victim, slot + 1, slot_done, migrated, std::move(finish));
        });
      });
}

void Storengine::FinishVictim(std::uint64_t victim, Tick barrier,
                              std::function<void(Tick)> done) {
  FlashBackbone::OpResult er =
      fv_->backbone().EraseBlockGroup(barrier, static_cast<int>(victim));
  sim_->ScheduleAt(er.done, [this, victim, became_bad = er.became_bad, done = std::move(done),
                             when = er.done]() {
    if (became_bad) {
      fv_->blocks().Retire(victim);
    } else {
      fv_->blocks().OnErased(victim);
      blocks_reclaimed_.Add();
    }
    maintenance_in_progress_ = false;
    done(when);
  });
}

void Storengine::RunJournalDump(std::function<void(Tick)> done) {
  // Stream the scratchpad-resident mapping table into a dedicated journal
  // block group. Every program below starts within this one event, and
  // ProgramGroup copies its payload before it returns, so the dump is an
  // atomic image of the table without a copy of its own: whole groups program
  // straight from the table's bytes, and only a partial last group goes
  // through a zero-padded bounce (a 2 MiB Paper-geometry table is exactly 32
  // groups and needs none).
  const std::span<const std::uint8_t> table = fv_->mapping().bytes();
  const auto& cfg = fv_->backbone().config();
  const std::uint64_t group_bytes = cfg.GroupBytes();
  const std::uint64_t groups_needed = (table.size() + group_bytes - 1) / group_bytes;
  FAB_CHECK_LE(groups_needed, fv_->DataSlotsPerBlockGroup())
      << "mapping snapshot larger than one journal block group";

  const std::uint64_t bg = fv_->blocks().AllocBlockGroup();
  if (bg == BlockManager::kNone) {
    // No room for a journal this round; try again next interval.
    done(sim_->Now());
    return;
  }
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), config_.pass_fixed_cpu);
  // Trace the dump (orchestration + programs + old-journal erase) on track 1.
  auto traced = [this, dump_start = iv.start, done = std::move(done)](Tick t) mutable {
    if (trace_ != nullptr) {
      trace_->Add(TraceTag::kGc, dump_start, t, 1.0, /*track=*/1);
    }
    done(t);
  };
  done = std::move(traced);
  Tick flash_done = iv.end;
  bool failed = false;
  std::vector<std::uint8_t> bounce;
  for (std::uint64_t g = 0; g < groups_needed; ++g) {
    const std::span<const std::uint8_t> part =
        table.subspan(g * group_bytes, std::min(group_bytes, table.size() - g * group_bytes));
    const std::uint8_t* payload = part.data();
    if (part.size() < group_bytes) {
      bounce.assign(group_bytes, 0);
      std::copy(part.begin(), part.end(), bounce.begin());
      payload = bounce.data();
    }
    FlashBackbone::OpResult r = fv_->backbone().ProgramGroup(
        flash_done, fv_->GroupOfSlot(bg, static_cast<std::uint32_t>(g)), payload, kOobJournal);
    failed = failed || r.status == IoStatus::kProgramFailed;
    flash_done = std::max(flash_done, r.done);
  }
  if (failed) {
    // Incomplete journal: abandon the block group (recovery would reject it
    // anyway — the OOB record of the failed group is not a journal tag) and
    // keep the previous dump as the durable mapping.
    fv_->blocks().Retire(bg);
    journal_aborts_.Add();
    sim_->ScheduleAt(flash_done, [done = std::move(done), flash_done]() { done(flash_done); });
    return;
  }
  journal_dumps_.Add();
  const std::uint64_t old_journal = prev_journal_bg_;
  prev_journal_bg_ = bg;
  sim_->ScheduleAt(flash_done, [this, old_journal, done = std::move(done), flash_done]() {
    if (old_journal != BlockManager::kNone) {
      FlashBackbone::OpResult er =
          fv_->backbone().EraseBlockGroup(flash_done, static_cast<int>(old_journal));
      sim_->ScheduleAt(er.done, [this, old_journal, became_bad = er.became_bad,
                                 done = std::move(done), when = er.done]() {
        if (became_bad) {
          fv_->blocks().Retire(old_journal);
        } else {
          fv_->blocks().OnErased(old_journal);
        }
        done(when);
      });
    } else {
      done(flash_done);
    }
  });
}

void Storengine::RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
  reg->RegisterCounter(prefix + "/gc_passes", &gc_passes_);
  reg->RegisterCounter(prefix + "/groups_migrated", &groups_migrated_);
  reg->RegisterCounter(prefix + "/blocks_reclaimed", &blocks_reclaimed_);
  reg->RegisterCounter(prefix + "/journal_dumps", &journal_dumps_);
  reg->RegisterCounter(prefix + "/journal_aborts", &journal_aborts_);
  reg->RegisterCounter(prefix + "/scrub_passes", &scrub_passes_);
  reg->RegisterCounter(prefix + "/scrub_migrations", &scrub_migrations_);
  reg->RegisterGauge(prefix + "/core_busy_ns",
                     [this](Tick now) { return static_cast<double>(core_.BusyTime(now)); });
  reg->RegisterGauge(prefix + "/core_utilization",
                     [this](Tick now) { return core_.Utilization(now); });
}

}  // namespace fabacus

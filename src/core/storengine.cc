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
    Every(config_.gc_interval, [this](std::function<void(Tick)> next) {
      if (!maintenance_in_progress_ &&
          fv_->blocks().free_count() < config_.gc_high_watermark && GcCanReclaim()) {
        RunGcPass(std::move(next));
      } else {
        next(sim_->Now());
      }
    });
  }
  Every(config_.journal_interval,
        [this](std::function<void(Tick)> next) { RunJournalDump(std::move(next)); });
  Every(config_.scrub_interval, [this](std::function<void(Tick)> next) {
    if (!maintenance_in_progress_) {
      RunScrubPass(std::move(next));
    } else {
      next(sim_->Now());
    }
  });
}

void Storengine::Every(Tick interval, std::function<void(std::function<void(Tick)>)> task) {
  if (!running_) {
    return;
  }
  sim_->ScheduleDaemon(interval, [this, interval, task = std::move(task), epoch = epoch_]() {
    if (epoch != epoch_ || !running_) {
      return;  // stopped (or stopped and restarted) since this was scheduled
    }
    task([this, interval, task](Tick) { Every(interval, task); });
  });
}

void Storengine::RunGcPass(std::function<void(Tick)> done) {
  FAB_CHECK(!maintenance_in_progress_) << "overlapping maintenance passes";
  RunPass(fv_->blocks().PickVictim(), /*retired=*/false, &gc_passes_, &groups_migrated_,
          /*track=*/0, std::move(done));
}

void Storengine::RunScrubPass(std::function<void(Tick)> done) {
  FAB_CHECK(!maintenance_in_progress_) << "overlapping maintenance passes";
  bool retired = false;
  const std::uint64_t victim = PickScrubVictim(&retired);
  if (victim != BlockManager::kNone && !retired) {
    // Pull the victim out of the GC candidate pool; it is erased and freed
    // (or retired) when the migration finishes, like a GC victim.
    FAB_CHECK(fv_->blocks().TakeUsed(victim));
  }
  RunPass(victim, retired, &scrub_passes_, &scrub_migrations_, /*track=*/2, std::move(done));
}

void Storengine::RunPass(std::uint64_t victim, bool retired, Counter* passes, Counter* migrated,
                         int track, std::function<void(Tick)> done) {
  if (victim == BlockManager::kNone) {
    done(sim_->Now());
    return;
  }
  maintenance_in_progress_ = true;
  passes->Add();
  const SerialCore::Interval iv = core_.Occupy(sim_->Now(), config_.pass_fixed_cpu);
  // Trace the whole pass (orchestration + migrations + erase) on `track`.
  auto end = [this, pass_start = iv.start, track, done = std::move(done)](Tick t) {
    maintenance_in_progress_ = false;
    if (trace_ != nullptr) {
      trace_->Add(TraceTag::kGc, pass_start, t, 1.0, track);
    }
    done(t);
  };
  // Walk the victim's data slots sequentially, migrating each valid group;
  // a retired victim keeps its block (nothing references it again), any
  // other is erased and recycled.
  sim_->ScheduleAt(iv.end, [this, victim, retired, migrated, end = std::move(end)]() mutable {
    MigrateRange(victim, 0, sim_->Now(), migrated,
                 [this, victim, retired, end = std::move(end)](Tick barrier) {
                   if (retired) {
                     end(barrier);
                     return;
                   }
                   Recycle(victim, barrier, [this, end](Tick t, bool freed) {
                     if (freed) {
                       blocks_reclaimed_.Add();
                     }
                     end(t);
                   });
                 });
  });
}

bool Storengine::GcCanReclaim() const {
  const std::uint32_t data_slots = fv_->DataSlotsPerBlockGroup();
  for (const std::uint64_t bg : fv_->blocks().used()) {
    if (fv_->mapping().LiveCount(bg) < data_slots) {
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
    if (fv_->blocks().IsRetired(bg) && fv_->mapping().LiveCount(bg) > 0) {
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

void Storengine::MigrateRange(std::uint64_t victim, std::uint32_t slot, Tick barrier,
                              Counter* migrated, std::function<void(Tick)> finish) {
  const std::uint32_t data_slots = fv_->DataSlotsPerBlockGroup();
  if (slot >= data_slots) {
    finish(barrier);
    return;
  }
  const std::uint32_t phys_old = fv_->GroupOfSlot(victim, slot);
  const std::uint32_t lg = fv_->mapping().ReverseLookup(phys_old);
  if (lg == MappingTable::kUnmapped) {
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
        if (fv_->mapping().Lookup(lg) != phys_old) {
          fv_->range_lock().Release(lock_id);
          MigrateRange(victim, slot + 1, barrier, migrated, std::move(finish));
          return;
        }
        const SerialCore::Interval iv = core_.Occupy(now, config_.per_group_cpu);
        // The victim left the candidate list (PickVictim / TakeUsed) or is
        // retired, as Relocate requires. The read status is not acted on: an
        // uncorrectable source moves as if it had read clean.
        const Tick slot_done = fv_->Relocate(phys_old, iv.end).done;
        migrated->Add();
        sim_->ScheduleAt(slot_done, [this, victim, slot, slot_done, lock_id, migrated,
                                     finish = std::move(finish)]() mutable {
          fv_->range_lock().Release(lock_id);
          MigrateRange(victim, slot + 1, slot_done, migrated, std::move(finish));
        });
      });
}

void Storengine::Recycle(std::uint64_t bg, Tick at, std::function<void(Tick, bool)> done) {
  const FlashBackbone::OpResult er = fv_->backbone().EraseBlockGroup(at, static_cast<int>(bg));
  sim_->ScheduleAt(er.done, [this, bg, freed = !er.became_bad, when = er.done,
                             done = std::move(done)]() {
    fv_->ReturnErased(bg, !freed);
    done(when, freed);
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
    if (old_journal == BlockManager::kNone) {
      done(flash_done);
      return;
    }
    Recycle(old_journal, flash_done, [done](Tick t, bool) { done(t); });
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

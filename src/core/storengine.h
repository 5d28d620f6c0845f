// Storengine (paper §4.3, "Storage management"): the LWP that takes the
// time-consuming flash-management tasks off Flashvisor's critical path.
//  * Garbage collection: victims are picked from the used pool round-robin
//    (not by valid-count), valid page groups migrate to the active write
//    point, and the erased block group returns to the free pool — all in the
//    background, overlapped with kernel execution and address translation.
//  * Metadata journaling: periodically dumps the scratchpad-resident mapping
//    table to flash so the mapping survives power loss.
//  * Wear levelling falls out of the round-robin victim policy; stats are
//    exposed so tests can bound the wear spread.
#ifndef SRC_CORE_STORENGINE_H_
#define SRC_CORE_STORENGINE_H_

#include <cstdint>
#include <functional>

#include "src/core/flashvisor.h"
#include "src/core/serial_core.h"
#include "src/core/trace.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace fabacus {

struct StorengineConfig {
  Tick journal_interval = 200 * kMs;
  Tick gc_interval = 50 * kMs;
  // Background GC aims to keep at least this many block groups free.
  std::size_t gc_high_watermark = 8;
  Tick per_group_cpu = 200;   // ns of Storengine core time per migrated group
  Tick pass_fixed_cpu = 2000; // ns per GC pass / journal dump orchestration
  bool enable_background_gc = true;
  // Patrol scrubber: refresh-migrates (1) valid data stranded in retired
  // block groups and (2) sealed block groups whose wear or accumulated
  // correctable-error count crossed the refresh thresholds.
  Tick scrub_interval = 400 * kMs;
  double scrub_wear_ratio = 0.85;          // of NandConfig::endurance_cycles
  std::uint32_t scrub_error_threshold = 4; // correctable errors per block group
};

class Storengine : public Snapshottable {
 public:
  Storengine(Simulator* sim, Flashvisor* flashvisor,
             const StorengineConfig& config = StorengineConfig{});

  // Arms the periodic background tasks and registers the on-demand GC
  // trigger with Flashvisor.
  void Start();
  // Stops background work: no journal/GC/scrub event fires after this.
  // Bumping the epoch invalidates every already-scheduled daemon (it wakes,
  // sees a stale epoch, and neither acts nor reschedules), so the simulator
  // drains instead of ticking idle daemons forever.
  void Stop() {
    running_ = false;
    ++epoch_;
  }

  // Runs one GC pass immediately (also used by the on-demand trigger and by
  // tests); `done` fires when the victim has been recycled — freed, or
  // retired if its erase failed — or at once when there was nothing to do.
  void RunGcPass(std::function<void(Tick)> done);

  // Dumps the mapping table to flash now: its bytes() program a fresh block
  // group slot by slot (the last slot zero-padded), all started in this call.
  // `done` fires once the old journal is erased, or when the dump is skipped
  // (no free block group) or abandoned (a program failed).
  void RunJournalDump(std::function<void(Tick)> done);

  // Runs one patrol-scrub pass now: picks the neediest victim (stranded data
  // in a retired block group first, then worn/error-heavy sealed groups) and
  // refresh-migrates it. `done` fires when the pass completes (immediately
  // when there is nothing to scrub).
  void RunScrubPass(std::function<void(Tick)> done);

  // Block group holding the most recent mapping-table journal (kNone before
  // the first dump). Recovery tooling reads the snapshot back from here.
  std::uint64_t last_journal_bg() const { return prev_journal_bg_; }
  // Crash recovery re-seats the journal location found on flash, so the next
  // dump erases/frees the right block group.
  void SetJournalLocation(std::uint64_t bg) { prev_journal_bg_ = bg; }

  std::uint64_t gc_passes() const { return gc_passes_.value(); }
  std::uint64_t groups_migrated() const { return groups_migrated_.value(); }
  std::uint64_t blocks_reclaimed() const { return blocks_reclaimed_.value(); }
  std::uint64_t journal_dumps() const { return journal_dumps_.value(); }
  std::uint64_t journal_aborts() const { return journal_aborts_.value(); }
  std::uint64_t scrub_passes() const { return scrub_passes_.value(); }
  std::uint64_t scrub_migrations() const { return scrub_migrations_.value(); }
  SerialCore& core() { return core_; }
  const StorengineConfig& config() const { return config_; }

  // When set, background work records kGc intervals into `trace`:
  // track 0 = GC passes (pass start -> victim recycled), track 1 = metadata
  // journal dumps, track 2 = scrub passes.
  void set_trace(RunTrace* trace) { trace_ = trace; }

  // Registers GC/journal counters plus core-occupancy gauges under `prefix`
  // (e.g. "storengine").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Snapshottable: journal location, maintenance counters and core occupancy.
  // The daemon arming state (running_/epoch_) is deliberately not saved: the
  // device snapshots with Storengine stopped and re-arms it after resume.
  // No maintenance pass may be mid-flight (its continuation is a closure).
  std::string StateName() const override { return "storengine"; }
  void Persist(StateIO& io) override {
    if (maintenance_in_progress_) {
      io.Fail("storengine maintenance in flight");
      return;
    }
    io.U64(prev_journal_bg_);
    core_.Persist(io);
    gc_passes_.Persist(io);
    groups_migrated_.Persist(io);
    blocks_reclaimed_.Persist(io);
    journal_dumps_.Persist(io);
    journal_aborts_.Persist(io);
    scrub_passes_.Persist(io);
    scrub_migrations_.Persist(io);
  }

 private:
  // Runs `task` every `interval` until Stop(): each wake-up hands the task
  // the continuation that arms the next one.
  void Every(Tick interval, std::function<void(std::function<void(Tick)>)> task);
  // The one maintenance pass behind GC and scrub: orchestration on the core,
  // then every valid slot of `victim` migrated to the active write point
  // (bumping `passes` once and `migrated` per group), then the victim
  // recycled — unless it is `retired`, which keeps it. `track` is its trace
  // track; `done` fires when the pass ends (at once without a victim).
  void RunPass(std::uint64_t victim, bool retired, Counter* passes, Counter* migrated,
               int track, std::function<void(Tick)> done);
  // Walks the victim's data slots from `slot`, migrating each valid group to
  // the active write point (bumping `migrated`); calls `finish` with the
  // final barrier once the slots are exhausted.
  void MigrateRange(std::uint64_t victim, std::uint32_t slot, Tick barrier, Counter* migrated,
                    std::function<void(Tick)> finish);
  // Erases block group `bg` at `at`; when the erase lands the group returns
  // to the free pool, or is retired if the erase failed. `done` receives the
  // erase's end and whether the group came back.
  void Recycle(std::uint64_t bg, Tick at, std::function<void(Tick, bool)> done);
  // Scrub victim selection: returns the block group to refresh, or kNone.
  // Sets *retired_mode when the victim is a retired group (migrate-only).
  std::uint64_t PickScrubVictim(bool* retired_mode) const;
  // True when at least one sealed block group holds an invalid slot, i.e. a
  // round of round-robin GC can eventually net free space. When every sealed
  // group is fully valid the device is simply full: migrating victims would
  // shuffle data forever (and burn erase cycles) without ever freeing a
  // block, so the background daemon and the low-watermark trigger must back
  // off instead of livelocking.
  bool GcCanReclaim() const;

  Simulator* sim_;
  Flashvisor* fv_;
  StorengineConfig config_;
  SerialCore core_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  // bumped by Stop(); stale daemons self-cancel
  // GC and scrub share the migration machinery and the active write point;
  // one maintenance pass at a time keeps them from interleaving half-moved
  // block groups.
  bool maintenance_in_progress_ = false;
  std::uint64_t prev_journal_bg_ = BlockManager::kNone;
  RunTrace* trace_ = nullptr;
  Counter gc_passes_;
  Counter groups_migrated_;
  Counter blocks_reclaimed_;
  Counter journal_dumps_;
  Counter journal_aborts_;
  Counter scrub_passes_;
  Counter scrub_migrations_;
};

}  // namespace fabacus

#endif  // SRC_CORE_STORENGINE_H_

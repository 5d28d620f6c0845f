// Flashvisor (paper §3.3, §4.3): the LWP dedicated to self-governing the
// flash backbone. It virtualizes flash into the processors' shared memory
// address space: kernels send queue messages naming a logical flash range and
// a DDR3L data-section pointer; Flashvisor translates through the
// scratchpad-resident page-group mapping table, enforces the range lock, and
// drives the FPGA controllers. Writes are log-structured: every write
// allocates the next page-group slot in the active block group, and sealed
// block groups carry a two-slot mapping summary for persistence.
//
// Real data flows: the functional prefix of every section round-trips through
// the byte-accurate flash store, so FTL correctness (including under GC) is
// observable by tests.
#ifndef SRC_CORE_FLASHVISOR_H_
#define SRC_CORE_FLASHVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/core/block_manager.h"
#include "src/core/mapping_table.h"
#include "src/core/range_lock.h"
#include "src/core/serial_core.h"
#include "src/core/tenant.h"
#include "src/flash/flash_backbone.h"
#include "src/mem/dram.h"
#include "src/mem/scratchpad.h"
#include "src/noc/message_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace fabacus {

struct FlashvisorConfig {
  Tick per_group_translate = 150;   // ns of Flashvisor core time per group
  Tick request_fixed_cost = 500;    // ns per queue message (parse + reply)
  Tick queue_latency = 100;         // ns hardware-queue delivery
  Tick scheduling_cost = 1500;      // ns per scheduling decision (intra modes)
  std::size_t gc_low_watermark = 4; // free block groups that trigger GC help
  // DDR3L write-buffer budget (paper §2.2: DDR3L "buffer[s] the majority of
  // flash writes"). A write is accepted once staged in this buffer; when the
  // outstanding un-programmed bytes exceed the budget, acceptance stalls
  // until enough programs drain.
  std::uint64_t write_buffer_bytes = 256ULL << 20;
};

class Flashvisor : public Snapshottable {
 public:
  struct IoRequest {
    enum class Type { kRead, kWrite };
    Type type = Type::kRead;
    std::uint64_t flash_addr = 0;    // logical byte address, group-aligned
    std::uint64_t model_bytes = 0;   // modeled transfer length (timing)
    void* func_data = nullptr;       // functional payload buffer
    std::uint64_t func_bytes = 0;    // bytes of real data (<= model_bytes)
    // Fires when the request is complete: read data resident in DDR3L, or
    // write accepted into the DDR3L write buffer. The status is the worst
    // outcome across the request's groups — kUncorrectable read data is
    // still delivered (garbage at device level) so the host can decide to
    // retry or fail the offload.
    std::function<void(Tick, IoStatus)> on_complete;
    // Reads: when true the section's read lock is held after completion and
    // its id is handed to `lock_holder`; the owner calls ReleaseLock() later
    // (at kernel completion). Writes always hold their lock until the flash
    // programs land.
    bool hold_lock = false;
    std::function<void(RangeLock::LockId)> lock_holder;
    // Owning tenant: range-lock contention, lock-wait time, GC stalls and
    // created garbage are attributed to it (docs/QOS.md).
    TenantId tenant = kDefaultTenant;
  };

  Flashvisor(Simulator* sim, FlashBackbone* backbone, Dram* dram, Scratchpad* scratchpad,
             const FlashvisorConfig& config = FlashvisorConfig{});

  // Enqueues an I/O request over the hardware message queue.
  void SubmitIo(IoRequest req);

  void ReleaseLock(RangeLock::LockId id);

  // Occupies the Flashvisor core for a scheduling decision; `done` fires when
  // the decision completes. Used by the intra-kernel schedulers.
  void RunSchedulingTask(std::function<void(Tick)> done);

  // Logical capacity exposed to applications (total minus an over-provisioned
  // reserve that keeps GC able to make progress).
  std::uint64_t LogicalCapacityBytes() const;

  // Simple logical-extent allocator for data sections (group aligned).
  std::uint64_t AllocLogicalExtent(std::uint64_t bytes);

  // Tenant-aware variant: atomically admits the whole extent list against
  // the tenant's flash-space quota (all-or-nothing — a denial allocates
  // nothing and counts one quota denial), then allocates each extent.
  // `addrs` receives one group-aligned logical address per requested size.
  // Without an attached TenantManager the quota check is skipped.
  bool TryAllocTenantExtents(TenantId tenant, const std::vector<std::uint64_t>& sizes,
                             std::vector<std::uint64_t>* addrs);
  // Rolls back the quota charge of a TryAllocTenantExtents reservation whose
  // extents were abandoned before any IO (install aborted).
  void RefundTenantExtents(TenantId tenant, const std::vector<std::uint64_t>& sizes);

  // Attaches per-tenant QoS accounting (quota admission, lock-wait and GC
  // attribution). Optional: a null manager keeps all paths tenant-blind.
  void set_tenants(TenantManager* tenants);
  TenantManager* tenants() const { return tenants_; }

  // GC attribution hook shared with Storengine: valid-data migration moves
  // the slot's tenant ownership to the new physical group and credits one
  // dragged group to the owner.
  void NoteMigration(std::uint32_t phys_old, std::uint32_t phys_new);

  MappingTable& mapping() { return map_; }
  BlockManager& blocks() { return blocks_; }
  RangeLock& range_lock() { return lock_; }
  FlashBackbone& backbone() { return *backbone_; }
  SerialCore& core() { return core_; }
  const FlashvisorConfig& config() const { return config_; }
  Simulator& sim() { return *sim_; }
  Dram& dram() { return *dram_; }

  // Pending flash writes become durable once their program reservations
  // complete; this is the latest such completion (tests run the simulator to
  // this horizon before checking flash contents).
  Tick write_drain_horizon() const { return write_drain_horizon_; }
  std::uint64_t reads_served() const { return reads_served_.value(); }
  std::uint64_t writes_served() const { return writes_served_.value(); }
  std::uint64_t ecc_events() const { return ecc_events_.value(); }
  std::uint64_t uncorrectable_reads() const { return uncorrectable_reads_.value(); }
  // Program-status fails absorbed by re-allocating to a fresh block group.
  std::uint64_t program_failure_reallocs() const { return program_failure_reallocs_.value(); }
  std::uint64_t retired_block_groups() const { return retired_block_groups_.value(); }
  // Emergency reclaims performed inline on the write path because the free
  // pool was exhausted (paper §4.3: "garbage collection [is] invoked on
  // demand" when background reclamation falls behind).
  std::uint64_t foreground_reclaims() const { return foreground_reclaims_.value(); }

  // Registers request/ECC/reclaim counters plus core-occupancy and
  // write-buffer gauges under `prefix` (e.g. "flashvisor").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Storengine hook: invoked (with current time) when the free pool dips
  // below the GC watermark.
  void set_gc_trigger(std::function<void(Tick)> cb) { gc_trigger_ = std::move(cb); }

  // --- Storengine-facing FTL internals (also used by recovery tooling) ---
  // Allocates the next physical page-group slot in the active block group,
  // sealing it (with a summary write) when full. Returns the physical group.
  std::uint32_t AllocatePhysicalGroup(Tick now, Tick* io_done);
  // Allocate + program with program-failure handling: a program-status fail
  // retires the active block group (its already-written slots stay readable
  // until the scrubber migrates them) and re-allocates in a fresh one.
  // `oob_tag` lands in the group's out-of-band record (the logical group for
  // data, or a kOob* constant). `*done_out` is max'ed with the program
  // completion; `*status_out` (optional) accumulates the worst non-fatal
  // status (dead-die degradation). Returns the physical group programmed.
  std::uint32_t ProgramReliable(Tick now, std::uint32_t oob_tag, const void* payload,
                                Tick* done_out, IoStatus* status_out = nullptr);

  // --- Power-loss crash recovery -------------------------------------------
  // Models the volatile state vanishing: mapping table, block-manager
  // bookkeeping, write buffer, range lock and inbound queue all clear. The
  // flash array (including OOB records) survives in the backbone.
  void OnPowerLoss();

  struct RecoveryReport {
    bool found_journal = false;
    std::uint64_t journal_bg = BlockManager::kNone;
    std::uint64_t journal_seq = 0;     // programs up to here are in the snapshot
    std::uint64_t restored_entries = 0;  // mappings restored from the journal
    std::uint64_t replayed_groups = 0;   // post-journal programs replayed from OOB
    std::uint64_t torn_groups = 0;       // half-programmed groups found
    std::uint64_t lost_groups = 0;       // mappings dropped (stale/torn target)
    Tick done = 0;                       // completion of the recovery reads
  };
  // Rebuilds the mapping table from flash alone: locate the newest complete
  // journal by OOB scan, restore its snapshot, replay every data program
  // with a later sequence number in order, drop mappings whose target does
  // not carry the matching OOB tag, and rebuild the block-group pools.
  RecoveryReport RecoverFromFlash(Tick now);
  // Number of data slots per block group (excludes the summary footer).
  std::uint32_t DataSlotsPerBlockGroup() const;
  std::uint64_t BlockGroupOf(std::uint32_t phys_group) const;
  std::uint32_t SlotOf(std::uint32_t phys_group) const;
  std::uint32_t GroupOfSlot(std::uint64_t bg, std::uint32_t slot) const;

  // Snapshottable: write-buffer occupancy, allocation cursors and service
  // counters. The owned mapping table, block manager and range lock are
  // Snapshottable in their own right and saved as separate sections (via the
  // mapping()/blocks()/range_lock() accessors); the inbound message queue
  // must be idle (closures cannot be serialized).
  std::string StateName() const override { return "flashvisor"; }
  int StateVersion() const override { return 2; }  // v2: + sparse slot tenants
  void SaveState(StateWriter& w) const override;
  void LoadState(StateReader& r) override;
  // True when no queued/undelivered I/O message is outstanding — a
  // precondition for snapshotting.
  bool QuiescedForSnapshot() const { return inbound_.Idle(); }

 private:
  void HandleIo(IoRequest req, std::function<void(Tick)> core_done);
  void DoRead(IoRequest req, Tick service_end);
  void DoWrite(IoRequest req, Tick service_end);
  void RetireActiveBlockGroup();
  void SealActiveBlockGroup(Tick now);
  void EnsureActiveBlockGroup(Tick now);
  void ForegroundReclaim(Tick now);
  // Admits a staged write into the finite DDR3L write buffer; returns the
  // time the caller may consider the write accepted.
  Tick AdmitWrite(Tick staged, std::uint64_t bytes, Tick flash_done);
  // Tenant ownership of a physical group's data (attribution only; 0 when
  // untracked). The backing vector stays empty until tenants are configured.
  TenantId SlotOwner(std::uint32_t phys_group) const;
  void SetSlotOwner(std::uint32_t phys_group, TenantId tenant);

  Simulator* sim_;
  FlashBackbone* backbone_;
  Dram* dram_;
  FlashvisorConfig config_;
  SerialCore core_;
  MappingTable map_;
  BlockManager blocks_;
  RangeLock lock_;
  MessageQueue<IoRequest> inbound_;

  // Outstanding write-buffer entries: (program-completion time, bytes),
  // earliest-draining first.
  std::priority_queue<std::pair<Tick, std::uint64_t>,
                      std::vector<std::pair<Tick, std::uint64_t>>,
                      std::greater<std::pair<Tick, std::uint64_t>>>
      write_buffer_;
  std::uint64_t write_buffer_used_ = 0;

  std::uint64_t active_bg_ = BlockManager::kNone;
  std::uint32_t active_slot_ = 0;
  std::uint64_t logical_alloc_cursor_ = 0;
  Tick write_drain_horizon_ = 0;
  Counter reads_served_;
  Counter writes_served_;
  Counter ecc_events_;
  Counter uncorrectable_reads_;
  Counter program_failure_reallocs_;
  Counter retired_block_groups_;
  Counter foreground_reclaims_;
  int reclaim_depth_ = 0;
  std::function<void(Tick)> gc_trigger_;
  TenantManager* tenants_ = nullptr;
  // Tenant of the write being serviced when a foreground reclaim fires (the
  // victim of the GC stall). Set/cleared within one DoWrite event.
  TenantId active_io_tenant_ = kDefaultTenant;
  // Per-physical-group owner, sized lazily on first multi-tenant write.
  std::vector<std::uint16_t> slot_tenant_;
};

}  // namespace fabacus

#endif  // SRC_CORE_FLASHVISOR_H_

// FPGA-based flash channel controller (paper §2.2): converts requests from
// the processor network into the flash clock domain. Implements the inbound/
// outbound "tag" queues — a bounded pool of in-flight operations per channel —
// and arbitrates the shared NV-DDR2 channel bus among its four packages.
#ifndef SRC_FLASH_FLASH_CONTROLLER_H_
#define SRC_FLASH_FLASH_CONTROLLER_H_

#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/flash/fault_model.h"
#include "src/flash/nand_config.h"
#include "src/flash/nand_package.h"
#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

// Bounded tag pool: Acquire blocks (in simulated time) until a tag frees up.
class TagQueue {
 public:
  explicit TagQueue(int depth);

  // Earliest time at/after `now` a tag is available; the tag is then held
  // until the caller's op completes (pass that completion to Release).
  Tick Acquire(Tick now);
  void Release(Tick completion);

  int depth() const { return depth_; }
  std::uint64_t acquires() const { return acquires_.value(); }
  // Total simulated time Acquire() callers waited for a free tag.
  std::uint64_t wait_ns() const { return wait_ns_.value(); }
  const Counter& acquires_counter() const { return acquires_; }
  const Counter& wait_ns_counter() const { return wait_ns_; }

  // Checkpoint/restore: the in-flight completion horizon is plain data (no
  // callbacks), so a tag pool mid-drain round-trips exactly.
  void Persist(StateIO& io);

 private:
  int depth_;
  // Completion times of in-flight ops, earliest first.
  std::priority_queue<Tick, std::vector<Tick>, std::greater<Tick>> inflight_;
  Counter acquires_;
  Counter wait_ns_;
};

class FlashController : public Snapshottable {
 public:
  // Per-channel outcome of one page-group slice; the backbone aggregates the
  // worst case across channels into an OpResult / IoStatus.
  struct ReadSliceResult {
    Tick done = 0;
    int rungs = 0;            // read-retry rungs walked (0 = clean first sense)
    bool uncorrectable = false;
    bool dead_die = false;    // served via detour to an alive die (or skipped)
  };
  struct ProgramSliceResult {
    Tick done = 0;
    bool failed = false;      // program-status fail reported by the die
    bool dead_die = false;    // die gone: bus charged, no cells written
  };
  struct EraseSliceResult {
    Tick done = 0;
    bool failed = false;      // erase fail: the block was marked bad
  };

  FlashController(const NandConfig& config, int channel, FaultModel* faults);

  // This channel's slice of a page-group read: multi-plane read on `package`
  // at (block, page), then the 2-page data transfer out over the bus. A
  // correctable-error read re-senses the page once per retry rung before the
  // transfer; a dead target die is detoured to an alive package (re-reading
  // the RAID-style slice reconstruction at reduced channel bandwidth).
  ReadSliceResult ReadSlice(Tick now, const GroupAddress& addr);
  // Slice of a page-group program: data in over the bus, then program.
  ProgramSliceResult ProgramSlice(Tick now, const GroupAddress& addr);
  // Slice of a block-group erase. `inject_failure` is the backbone's one
  // per-superblock erase-failure draw (a failure retires the whole group).
  EraseSliceResult EraseSlice(Tick now, int package, int block, bool inject_failure);

  NandPackage& package(int i) { return *packages_[i]; }
  const NandPackage& package(int i) const { return *packages_[i]; }
  int channel() const { return channel_; }
  double bus_bytes_moved() const { return bus_.bytes_moved(); }
  Tick BusBusyTime(Tick now) const { return bus_.BusyTime(now); }
  const TagQueue& tags() const { return tags_; }

  // Observer invoked with (channel, start, end) for every NV-DDR2 bus data
  // transfer — the per-channel kFlashChan trace tracks are built from these.
  using BusObserver = std::function<void(int channel, Tick start, Tick end)>;
  void set_bus_observer(BusObserver obs) { bus_observer_ = std::move(obs); }

  // Registers this channel's bus/tag metrics plus every package's counters
  // under `prefix` (e.g. "flash/ch0" -> "flash/ch0/pkg1/reads").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Snapshottable: bus horizon + tag pool + every package on this channel.
  std::string StateName() const override;
  void Persist(StateIO& io) override;

 private:
  Tick ReserveBus(Tick now, double bytes);
  // First alive package in this channel, or -1 when the whole channel is dead.
  int AlivePackage(int preferred) const;

  const NandConfig& config_;
  int channel_;
  FaultModel* faults_;
  BandwidthResource bus_;
  TagQueue tags_;
  std::vector<std::unique_ptr<NandPackage>> packages_;
  BusObserver bus_observer_;
};

}  // namespace fabacus

#endif  // SRC_FLASH_FLASH_CONTROLLER_H_

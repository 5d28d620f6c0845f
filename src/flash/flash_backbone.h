// The flash backbone: the self-existent backend storage complex (paper §2.2).
// Aggregates four FPGA channel controllers behind the SRIO/FMC link and
// exposes page-group granular operations to Flashvisor. Page-group contents
// are byte-accurate (backed by a sparse store), so the FTL above it can be
// validated end to end: data written must read back identically across GC,
// wear-levelling, journaling — and now power loss: every program deposits a
// small out-of-band record ({owner tag, monotonic sequence}) alongside the
// data, which is all crash recovery has to rebuild the mapping table from.
#ifndef SRC_FLASH_FLASH_BACKBONE_H_
#define SRC_FLASH_FLASH_BACKBONE_H_

#include <memory>
#include <vector>

#include <functional>

#include "src/flash/fault_model.h"
#include "src/flash/flash_controller.h"
#include "src/flash/nand_config.h"
#include "src/mem/byte_store.h"
#include "src/noc/srio_link.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

// Reserved out-of-band tags. Values below kOobReservedFloor are logical page
// group numbers (data written on behalf of the mapping table).
inline constexpr std::uint32_t kOobUnwritten = 0xFFFFFFFFu;  // erased, never programmed
inline constexpr std::uint32_t kOobTorn = 0xFFFFFFFEu;       // program interrupted by power loss
inline constexpr std::uint32_t kOobJournal = 0xFFFFFFFDu;    // Storengine journal payload
inline constexpr std::uint32_t kOobFooter = 0xFFFFFFFCu;     // block-group seal footer
inline constexpr std::uint32_t kOobNone = 0xFFFFFFFBu;       // timing-only / untracked program
inline constexpr std::uint32_t kOobReservedFloor = kOobNone;

class FlashBackbone : public Snapshottable {
 public:
  struct OpResult {
    Tick done = 0;
    IoStatus status = IoStatus::kOk;
    int retry_rungs = 0;      // deepest read-retry rung walked by any channel
    bool ecc_event = false;   // correctable-error threshold crossed (reads)
    bool became_bad = false;  // block retired (erases)
  };

  // Durable out-of-band record kept next to each physical page group.
  struct OobEntry {
    std::uint32_t tag = kOobUnwritten;
    std::uint64_t seq = 0;
  };

  explicit FlashBackbone(const NandConfig& config, std::uint64_t seed = 1);

  // Reads physical page group `group`; if `out` is non-null it receives
  // GroupBytes() of data (data travels over SRIO to the compute complex).
  // status: kDegraded when any channel walked retry rungs or detoured a dead
  // die; kUncorrectable when a slice exhausted the retry ladder.
  OpResult ReadGroup(Tick now, std::uint64_t group, void* out);

  // Programs physical page group `group` with `data` (nullable = timing-only,
  // contents become zero). Data first crosses SRIO into the controllers.
  // `oob_tag` is the logical group this program serves, or a kOob* constant;
  // it lands in the group's out-of-band record together with a monotonically
  // increasing sequence number. status: kProgramFailed when any die reported
  // a program-status fail (the caller must re-allocate; cells are suspect).
  OpResult ProgramGroup(Tick now, std::uint64_t group, const void* data,
                        std::uint32_t oob_tag = kOobNone);

  // Erases block group `block`: that block index on every package of every
  // channel (superblock erase). Clears the OOB records of every group inside.
  OpResult EraseBlockGroup(Tick now, int block);

  // Power loss at tick `now`: programs still in flight (completion after
  // `now`) are torn — their contents are dropped and their OOB records are
  // marked kOobTorn so recovery can tell "never written" from "half written".
  void PowerFail(Tick now);

  const NandConfig& config() const { return config_; }
  FlashController& controller(int ch) { return *controllers_[ch]; }
  const FlashController& controller(int ch) const { return *controllers_[ch]; }
  SrioLink& srio() { return srio_; }
  FaultModel& faults() { return faults_; }
  const FaultModel& faults() const { return faults_; }

  const OobEntry& Oob(std::uint64_t group) const { return oob_[group]; }
  std::uint64_t program_seq() const { return program_seq_; }

  bool IsBadBlockGroup(int block) const;
  std::uint64_t MaxWear() const;
  std::uint64_t TotalErases() const;
  // Max wear / accumulated correctable-read-error count of one block group
  // (feeds the patrol scrubber's victim policy). Error counts reset on erase.
  std::uint64_t BlockGroupWear(int block) const;
  std::uint64_t BlockGroupErrors(int block) const { return block_errors_[block]; }
  std::uint64_t reads() const { return reads_.value(); }
  std::uint64_t programs() const { return programs_.value(); }
  std::uint64_t erases() const { return erases_.value(); }
  // Read-retry passes triggered by correctable-error thresholds.
  std::uint64_t read_retries() const { return read_retries_.value(); }
  std::uint64_t uncorrectable_reads() const { return uncorrectable_reads_.value(); }
  std::uint64_t program_failures() const { return program_failures_.value(); }
  std::uint64_t erase_failures() const { return erase_failures_.value(); }
  std::uint64_t dead_die_reads() const { return dead_die_reads_.value(); }
  std::uint64_t dead_die_programs() const { return dead_die_programs_.value(); }
  std::uint64_t torn_groups() const { return torn_groups_.value(); }
  double bytes_read() const { return bytes_read_; }
  double bytes_programmed() const { return bytes_programmed_; }
  // Peak package utilization, a proxy for flash-array activity (energy model).
  Tick ArrayBusyTime(Tick now) const;

  // Observer invoked once per device operation with its (issue, completion)
  // interval — the energy model and Fig-15 traces are built from these.
  using OpObserver = std::function<void(Tick start, Tick end)>;
  void set_op_observer(OpObserver obs) { op_observer_ = std::move(obs); }

  // Installs a per-channel bus observer on every controller (see
  // FlashController::set_bus_observer).
  void set_bus_observer(FlashController::BusObserver obs);

  // Registers device-level op counters under `prefix` (e.g. "flash") plus
  // every controller's channel/package metrics ("flash/ch<k>/...").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Snapshottable: page contents, OOB records, program sequence, error/op
  // accounting and the in-flight program horizon. The fault model and the
  // channel controllers are snapshotted as their own sections (they are
  // Snapshottable themselves), so this section carries only backbone-local
  // state.
  std::string StateName() const override { return "flash"; }
  void SaveState(StateWriter& w) const override;
  void LoadState(StateReader& r) override;

 private:
  NandConfig config_;
  FaultModel faults_;  // before controllers_: they hold a pointer into it
  std::vector<std::unique_ptr<FlashController>> controllers_;
  SrioLink srio_;
  ByteStore data_;
  std::vector<OobEntry> oob_;               // one record per physical group
  std::uint64_t program_seq_ = 0;
  std::vector<std::uint64_t> block_errors_;  // per block group, reset on erase
  // Programs whose die completion lies in the future; PowerFail tears them.
  struct InflightProgram {
    std::uint64_t group;
    Tick done;
  };
  std::vector<InflightProgram> inflight_programs_;
  Counter reads_;
  Counter programs_;
  Counter erases_;
  Counter read_retries_;
  Counter uncorrectable_reads_;
  Counter program_failures_;
  Counter erase_failures_;
  Counter dead_die_reads_;
  Counter dead_die_programs_;
  Counter torn_groups_;
  std::vector<Counter> retry_rung_counts_;  // [rung-1] -> ops whose deepest rung was `rung`
  double bytes_read_ = 0.0;
  double bytes_programmed_ = 0.0;
  OpObserver op_observer_;
};

}  // namespace fabacus

#endif  // SRC_FLASH_FLASH_BACKBONE_H_

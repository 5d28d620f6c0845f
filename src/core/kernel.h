// Kernel description table, microblocks, screens and application instances
// (paper §4, Figures 4, 6 and 8).
//
// A kernel is an executable object (an ELF-like "kernel description table"
// with .text/.ddr3_arr/.heap/.stack sections). Its body is an ordered list of
// *microblocks*; execution of consecutive microblocks must serialize, but a
// non-serial microblock splits into *screens* — independent slices of its
// input — that different LWPs execute concurrently.
//
// Each microblock carries two faces:
//  * a timing face: the modelled share of the kernel's instructions and
//    memory traffic (parameterised from Table 2's LD/ST ratio and B/KI);
//  * a functional face: a real C++ body operating on the instance's float
//    buffers, validated against reference implementations in the tests.
#ifndef SRC_CORE_KERNEL_H_
#define SRC_CORE_KERNEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace fabacus {

class AppInstance;

// Functional body of one microblock: processes outer-loop iterations
// [begin, end) against the instance's buffers.
using MicroblockBody = std::function<void(AppInstance&, std::size_t begin, std::size_t end)>;

struct MicroblockSpec {
  std::string name;
  bool serial = false;        // a "serial MBLK": no screens, runs on one LWP
  double work_fraction = 1.0; // share of the kernel's modelled instructions
  // Instruction mix for the VLIW FU-bottleneck model. Fractions over all
  // issued instructions; frac_ldst defaults from the workload's LD/ST ratio.
  double frac_ldst = 0.3;
  double frac_mul = 0.2;
  double frac_alu = 0.5;
  // Reuse window (tile) of the microblock's access pattern: windows within a
  // cache level keep repeat traffic there (see CacheModel).
  double reuse_window_bytes = 32 * 1024;
  // Distinct bytes streamed by the microblock, as a multiple of the kernel's
  // modelled input volume x work_fraction (1.0 = each input byte once).
  double stream_factor = 1.0;
  std::size_t func_iterations = 0;  // functional outer-loop trip count
  MicroblockBody body;              // may be empty for timing-only workloads
};

struct DataSectionSpec {
  enum class Dir { kIn, kOut };
  std::string name;
  Dir dir = Dir::kIn;
  // Fraction of the instance's modelled input volume held by this section
  // (inputs should sum to ~1; outputs are typically smaller).
  double model_fraction = 1.0;
  int buffer_index = -1;  // index into AppInstance::buffers(); -1 = none
};

// The immutable per-application description (shared by all instances).
struct KernelSpec {
  std::string name;
  double model_input_mb = 0.0;  // Table 2 "Input" per instance (unscaled)
  double ldst_ratio = 0.3;      // Table 2 "LD/ST ratio" (fraction, not %)
  double bki = 30.0;            // Table 2 "B/KI": bytes per kilo-instruction
  std::vector<MicroblockSpec> microblocks;
  std::vector<DataSectionSpec> sections;
  // ELF-ish auxiliary sections (sized for the PCIe offload cost).
  std::uint64_t text_bytes = 64 * 1024;
  std::uint64_t heap_bytes = 256 * 1024;
  std::uint64_t stack_bytes = 64 * 1024;

  int num_microblocks() const { return static_cast<int>(microblocks.size()); }
  int num_serial_microblocks() const;
  // Total modelled instructions for an instance processing `model_bytes`.
  double ModelInstructions(double model_bytes) const { return model_bytes * 1000.0 / bki; }
};

// A live data section of one instance: the logical flash extent it maps and
// the functional buffer behind it.
struct DataSection {
  const DataSectionSpec* spec = nullptr;
  std::uint64_t flash_addr = 0;   // logical flash byte address (group aligned)
  std::uint64_t model_bytes = 0;  // modelled size
  // Live read locks (input sections map as one or more streamed requests).
  std::vector<std::uint64_t> lock_ids;
};

// One offloaded instance of an application kernel.
class AppInstance {
 public:
  AppInstance(int app_id, int instance_id, const KernelSpec* spec, double model_scale);

  int app_id() const { return app_id_; }
  int instance_id() const { return instance_id_; }
  const KernelSpec& spec() const { return *spec_; }
  // Modelled input volume in bytes after the global scale factor.
  double model_input_bytes() const { return model_input_bytes_; }

  std::vector<std::vector<float>>& buffers() { return buffers_; }
  const std::vector<std::vector<float>>& buffers() const { return buffers_; }
  std::vector<float>& buffer(int i) { return buffers_.at(static_cast<std::size_t>(i)); }
  const std::vector<float>& buffer(int i) const {
    return buffers_.at(static_cast<std::size_t>(i));
  }
  // Ensures `count` buffers exist (workload Prepare() uses this).
  void EnsureBuffers(std::size_t count) {
    if (buffers_.size() < count) {
      buffers_.resize(count);
    }
  }

  std::vector<DataSection>& sections() { return sections_; }
  const std::vector<DataSection>& sections() const { return sections_; }
  // Rebuilds sections() from the spec, each sized at its share of the
  // modelled input volume but never below its functional bytes or one byte.
  // The device and the SIMD baseline both lay data out this way.
  void LayOutSections();
  // The functional bytes behind a section: its buffer as bytes, or empty
  // for a section without one.
  std::span<std::uint8_t> SectionData(const DataSection& s);

  // Scratch integer state some workloads need besides float buffers.
  std::vector<std::int32_t>& int_state() { return int_state_; }
  const std::vector<std::int32_t>& int_state() const { return int_state_; }

  // Owning tenant (docs/QOS.md). Indexes FlashAbacusConfig::tenant_sched
  // .tenants when tenants are configured; 0 (the default tenant) otherwise.
  std::uint16_t tenant = 0;

  // Timeline (filled in by the execution engine).
  Tick submit_time = 0;
  Tick load_done_time = 0;
  Tick compute_done_time = 0;
  Tick complete_time = 0;
  bool done = false;

 private:
  int app_id_;
  int instance_id_;
  const KernelSpec* spec_;
  double model_input_bytes_;
  std::vector<std::vector<float>> buffers_;
  std::vector<DataSection> sections_;
  std::vector<std::int32_t> int_state_;
};

// Modelled cost of one screen (a slice of one microblock of one instance).
struct ScreenWork {
  double instructions = 0.0;
  double frac_ldst = 0.3;
  double frac_mul = 0.2;
  double frac_alu = 0.5;
  double touched_bytes = 0.0;   // load/store traffic issued by the screen
  double window_bytes = 0.0;    // reuse window (tile)
  double distinct_bytes = 0.0;  // distinct bytes streamed
};

// Computes the modelled cost of screen `screen_idx` of `num_screens` for
// microblock `mblk` of `inst`.
ScreenWork ComputeScreenWork(const AppInstance& inst, int mblk, int screen_idx,
                             int num_screens);

// Functional iteration range of that screen.
void ScreenFuncRange(const AppInstance& inst, int mblk, int screen_idx, int num_screens,
                     std::size_t* begin, std::size_t* end);

}  // namespace fabacus

#endif  // SRC_CORE_KERNEL_H_

#include "src/core/kernel.h"

#include <algorithm>

#include "src/sim/log.h"

namespace fabacus {

int KernelSpec::num_serial_microblocks() const {
  int n = 0;
  for (const MicroblockSpec& m : microblocks) {
    if (m.serial) {
      ++n;
    }
  }
  return n;
}

AppInstance::AppInstance(int app_id, int instance_id, const KernelSpec* spec,
                         double model_scale)
    : app_id_(app_id), instance_id_(instance_id), spec_(spec) {
  FAB_CHECK(spec != nullptr);
  FAB_CHECK_GT(model_scale, 0.0);
  model_input_bytes_ = spec->model_input_mb * 1024.0 * 1024.0 * model_scale;
}

void AppInstance::LayOutSections() {
  sections_.clear();
  for (const DataSectionSpec& spec : spec_->sections) {
    DataSection s;
    s.spec = &spec;
    const auto model = static_cast<std::uint64_t>(model_input_bytes_ * spec.model_fraction);
    s.model_bytes = std::max<std::uint64_t>({model, SectionData(s).size(), 1});
    sections_.push_back(s);
  }
}

std::span<std::uint8_t> AppInstance::SectionData(const DataSection& s) {
  if (s.spec->buffer_index < 0) {
    return {};
  }
  std::vector<float>& buf = buffer(s.spec->buffer_index);
  return {reinterpret_cast<std::uint8_t*>(buf.data()), buf.size() * sizeof(float)};
}

ScreenWork ComputeScreenWork(const AppInstance& inst, int mblk, int screen_idx,
                             int num_screens) {
  const KernelSpec& spec = inst.spec();
  FAB_CHECK_GE(mblk, 0);
  FAB_CHECK_LT(mblk, spec.num_microblocks());
  FAB_CHECK_GT(num_screens, 0);
  FAB_CHECK_GE(screen_idx, 0);
  FAB_CHECK_LT(screen_idx, num_screens);
  const MicroblockSpec& m = spec.microblocks[static_cast<std::size_t>(mblk)];

  const double kernel_instr = spec.ModelInstructions(inst.model_input_bytes());
  const double mblk_instr = kernel_instr * m.work_fraction;
  // Screens split the microblock's iteration space evenly; give the last
  // screen any remainder via fractional boundaries.
  const double f0 = static_cast<double>(screen_idx) / num_screens;
  const double f1 = static_cast<double>(screen_idx + 1) / num_screens;

  ScreenWork w;
  w.instructions = mblk_instr * (f1 - f0);
  w.frac_ldst = m.frac_ldst;
  w.frac_mul = m.frac_mul;
  w.frac_alu = m.frac_alu;
  // Each load/store moves one 8-byte VLIW word on average.
  w.touched_bytes = w.instructions * w.frac_ldst * 8.0;
  w.window_bytes = m.reuse_window_bytes;
  w.distinct_bytes =
      inst.model_input_bytes() * m.work_fraction * m.stream_factor * (f1 - f0);
  return w;
}

void ScreenFuncRange(const AppInstance& inst, int mblk, int screen_idx, int num_screens,
                     std::size_t* begin, std::size_t* end) {
  const MicroblockSpec& m = inst.spec().microblocks[static_cast<std::size_t>(mblk)];
  const std::size_t total = m.func_iterations;
  *begin = total * static_cast<std::size_t>(screen_idx) / static_cast<std::size_t>(num_screens);
  *end = total * static_cast<std::size_t>(screen_idx + 1) / static_cast<std::size_t>(num_screens);
}

}  // namespace fabacus

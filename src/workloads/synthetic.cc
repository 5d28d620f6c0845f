// Synthetic kernel for the Fig-3 motivation study: a configurable fraction
// of the modelled work is serialized (a serial microblock), the rest is
// fully parallel. The functional body is a simple streaming transform so the
// end-to-end data path stays verifiable.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kElems = 1 << 20;

void Transform(const std::vector<float>& in, std::vector<float>* out, std::size_t begin,
               std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    (*out)[i] = in[i] * 1.7f + 0.3f;
  }
}

class SyntheticWorkload : public Workload {
 public:
  SyntheticWorkload(double serial_ratio, double input_mb, bool io_free) {
    spec_.name = "SYN" + std::to_string(static_cast<int>(serial_ratio * 100));
    spec_.model_input_mb = input_mb;
    spec_.ldst_ratio = 0.40;
    spec_.bki = 150.0;  // ~0.6 GB/s per LWP, matching the Fig-3b scale

    const bool has_serial = serial_ratio > 0.0;
    const bool has_parallel = serial_ratio < 1.0;
    // Functional split: the serial part owns [0, split), the parallel part
    // [split, kElems); a missing part hands its range to the other.
    const std::size_t split = !has_serial ? 0 : (has_parallel ? kElems / 2 : kElems);
    if (has_serial) {
      MicroblockSpec serial;
      serial.name = "serial_part";
      serial.serial = true;
      serial.work_fraction = serial_ratio;
      SetMix(&serial, spec_.ldst_ratio, 0.25);
      serial.func_iterations = split;
      serial.body = [split](AppInstance& inst, std::size_t, std::size_t) {
        Transform(inst.buffer(0), &inst.buffer(1), 0, split);
      };
      spec_.microblocks.push_back(serial);
    }
    if (has_parallel) {
      MicroblockSpec parallel;
      parallel.name = "parallel_part";
      parallel.serial = false;
      parallel.work_fraction = 1.0 - serial_ratio;
      SetMix(&parallel, spec_.ldst_ratio, 0.25);
      parallel.func_iterations = kElems - split;
      parallel.body = [split](AppInstance& inst, std::size_t begin, std::size_t end) {
        Transform(inst.buffer(0), &inst.buffer(1), split + begin, split + end);
      };
      spec_.microblocks.push_back(parallel);
    }

    if (!io_free) {
      spec_.sections = {
          {"in", DataSectionSpec::Dir::kIn, 1.0, 0},
          {"out", DataSectionSpec::Dir::kOut, 1.0, 1},
      };
    }
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    FillRandom(&inst.buffer(0), kElems, rng);
    FillZero(&inst.buffer(1), kElems);
  }

  // The input is read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(1), kElems);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kElems, 0.0f);
    Transform(inst.buffer(0), &ref, 0, kElems);
    return Outputs({{1, std::move(ref)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSynthetic(double serial_ratio, double input_mb, bool io_free) {
  return std::make_unique<SyntheticWorkload>(serial_ratio, input_mb, io_free);
}

}  // namespace fabacus

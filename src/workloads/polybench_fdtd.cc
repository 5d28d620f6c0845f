// FDTD-2D: one Yee-method time step — Table 2: 3 MBLKs (1 serial), 1920 MB,
// LD/ST 27.27%, B/KI 38.52 (data-intensive). Matches the paper's Figure 6:
// m0 (serial) applies the excitation fict to the ey boundary, m1 computes the
// ey/ex differentials, m2 produces the output hz.
//
// Buffers: 0 = fict (T), 1 = ex (N x N), 2 = ey (N x N), 3 = hz (N x N).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 512;

void ApplyFict(const std::vector<float>& fict, std::vector<float>* ey) {
  // m0: convert the 1-D excitation into the first row of ey (paper Fig 6a).
  for (std::size_t j = 0; j < kN; ++j) {
    (*ey)[j] = fict[j % fict.size()];
  }
}

void UpdateFields(std::vector<float>* ex, std::vector<float>* ey,
                  const std::vector<float>& hz, std::size_t begin, std::size_t end) {
  // m1: ey/hz and ex/hz differentials.
  for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      (*ey)[i * kN + j] -= 0.5f * (hz[i * kN + j] - hz[(i - 1) * kN + j]);
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 1; j < kN; ++j) {
      (*ex)[i * kN + j] -= 0.5f * (hz[i * kN + j] - hz[i * kN + j - 1]);
    }
  }
}

void UpdateHz(std::vector<float>* hz, const std::vector<float>& ex,
              const std::vector<float>& ey, std::size_t begin, std::size_t end) {
  // m2: hz update; each output element independent (paper: four screens).
  for (std::size_t i = begin; i < std::min(end, kN - 1); ++i) {
    for (std::size_t j = 0; j < kN - 1; ++j) {
      (*hz)[i * kN + j] -= 0.7f * (ex[i * kN + j + 1] - ex[i * kN + j] +
                                   ey[(i + 1) * kN + j] - ey[i * kN + j]);
    }
  }
}

class FdtdWorkload : public Workload {
 public:
  FdtdWorkload() {
    spec_.name = "FDTD";
    spec_.model_input_mb = 1920.0;
    spec_.ldst_ratio = 0.2727;
    spec_.bki = 38.52;

    MicroblockSpec m0;
    m0.name = "apply_fict";
    m0.serial = true;
    m0.work_fraction = 0.05;
    SetMix(&m0, spec_.ldst_ratio, 0.25);
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t, std::size_t) {
      ApplyFict(inst.buffer(0), &inst.buffer(2));
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "ex_ey_diff";
    m1.serial = false;
    m1.work_fraction = 0.5;
    SetMix(&m1, spec_.ldst_ratio, 0.3);
    m1.reuse_window_bytes = 3 * kN * sizeof(float);
    m1.func_iterations = kN;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      UpdateFields(&inst.buffer(1), &inst.buffer(2), inst.buffer(3), begin, end);
    };
    spec_.microblocks.push_back(m1);

    MicroblockSpec m2;
    m2.name = "hz_update";
    m2.serial = false;
    m2.work_fraction = 0.45;
    SetMix(&m2, spec_.ldst_ratio, 0.3);
    m2.reuse_window_bytes = 3 * kN * sizeof(float);
    m2.func_iterations = kN;
    m2.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      UpdateHz(&inst.buffer(3), inst.buffer(1), inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m2);

    spec_.sections = {
        {"fict", DataSectionSpec::Dir::kIn, 0.02, 0},
        {"ex", DataSectionSpec::Dir::kIn, 0.32, 1},
        {"ey", DataSectionSpec::Dir::kIn, 0.32, 2},
        {"hz_in", DataSectionSpec::Dir::kIn, 0.34, 3},
        {"hz", DataSectionSpec::Dir::kOut, 0.34, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), kN, rng);
    FillRandom(&inst.buffer(1), kN * kN, rng);
    FillRandom(&inst.buffer(2), kN * kN, rng);
    FillRandom(&inst.buffer(3), kN * kN, rng);
    // Stash pristine copies for verification (buffers 4-6 are scratch and
    // never sections, so they survive the run untouched).
    inst.EnsureBuffers(8);
    inst.buffer(4) = inst.buffer(1);
    inst.buffer(5) = inst.buffer(2);
    inst.buffer(6) = inst.buffer(3);
  }

  // fict is read-only; ex, ey and hz are updated in place from buffers 4-6.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(1) = inst.buffer(4);
    inst.buffer(2) = inst.buffer(5);
    inst.buffer(3) = inst.buffer(6);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ex = inst.buffer(4);
    std::vector<float> ey = inst.buffer(5);
    std::vector<float> hz = inst.buffer(6);
    ApplyFict(inst.buffer(0), &ey);
    UpdateFields(&ex, &ey, hz, 0, kN);
    UpdateHz(&hz, ex, ey, 0, kN);
    return Outputs({{1, std::move(ex)}, {2, std::move(ey)}, {3, std::move(hz)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeFdtd() { return std::make_unique<FdtdWorkload>(); }

}  // namespace fabacus

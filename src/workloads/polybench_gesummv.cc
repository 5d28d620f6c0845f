// GESUM (gesummv): y = alpha A x + beta B x — Table 2: 1 MBLK (0 serial),
// 640 MB, LD/ST 48.08%, B/KI 72.13 (data-intensive).
//
// Buffers: 0 = A (N x N), 1 = B (N x N), 2 = x (N), 3 = y (N).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 768;
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 1.2f;

void GesummvRows(const AppInstance& inst, std::vector<float>* y, std::size_t begin,
                 std::size_t end) {
  const std::vector<float>& a = inst.buffer(0);
  const std::vector<float>& b = inst.buffer(1);
  const std::vector<float>& x = inst.buffer(2);
  for (std::size_t i = begin; i < end; ++i) {
    float sa = 0.0f;
    float sb = 0.0f;
    for (std::size_t j = 0; j < kN; ++j) {
      sa += a[i * kN + j] * x[j];
      sb += b[i * kN + j] * x[j];
    }
    (*y)[i] = kAlpha * sa + kBeta * sb;
  }
}

class GesummvWorkload : public Workload {
 public:
  GesummvWorkload() {
    spec_.name = "GESUM";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.4808;
    spec_.bki = 72.13;

    MicroblockSpec m0;
    m0.name = "gesummv";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.40);
    m0.reuse_window_bytes = kN * sizeof(float) * 3;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      GesummvRows(inst, &inst.buffer(3), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.47, 0},
        {"B", DataSectionSpec::Dir::kIn, 0.47, 1},
        {"x", DataSectionSpec::Dir::kIn, 0.06, 2},
        {"y", DataSectionSpec::Dir::kOut, 0.06, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN * kN, rng);
    FillRandom(&inst.buffer(2), kN, rng);
    FillZero(&inst.buffer(3), kN);
  }

  // A, B and x are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(3), kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> y(kN, 0.0f);
    GesummvRows(inst, &y, 0, kN);
    return Outputs({{3, std::move(y)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeGesummv() { return std::make_unique<GesummvWorkload>(); }

}  // namespace fabacus

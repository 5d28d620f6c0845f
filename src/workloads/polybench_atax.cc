// ATAX: y = A^T (A x)  — Table 2: 2 MBLKs (1 serial), 640 MB input,
// LD/ST 45.61%, B/KI 68.86 (data-intensive).
//
// Buffers: 0 = A (N x N), 1 = x (N), 2 = tmp (N), 3 = y (N).
// Microblock 0 (parallel over rows):   tmp = A x
// Microblock 1 (serial, reduction over rows into columns): y = A^T tmp
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 768;

class AtaxWorkload : public Workload {
 public:
  AtaxWorkload() {
    spec_.name = "ATAX";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.4561;
    spec_.bki = 68.86;

    MicroblockSpec m0;
    m0.name = "tmp=A*x";
    m0.serial = false;
    m0.work_fraction = 0.55;
    SetMix(&m0, spec_.ldst_ratio, 0.40);
    m0.reuse_window_bytes = kN * sizeof(float) * 2;  // one row + x
    m0.stream_factor = 1.0;
    m0.func_iterations = kN;  // rows
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      std::vector<float>& tmp = inst.buffer(2);
      RowDots(inst.buffer(0).data(), inst.buffer(1).data(), kN, begin, end,
              [&tmp](std::size_t i, float acc) { tmp[i] = acc; });
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "y=At*tmp";
    m1.serial = true;  // column reduction: write hazards across rows
    m1.work_fraction = 0.45;
    SetMix(&m1, spec_.ldst_ratio, 0.40);
    m1.reuse_window_bytes = kN * sizeof(float) * 2;
    m1.stream_factor = 1.0;
    m1.func_iterations = kN;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      const std::vector<float>& a = inst.buffer(0);
      const std::vector<float>& tmp = inst.buffer(2);
      std::vector<float>& y = inst.buffer(3);
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          y[j] += a[i * kN + j] * tmp[i];
        }
      }
    };
    spec_.microblocks.push_back(m1);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.92, 0},
        {"x", DataSectionSpec::Dir::kIn, 0.04, 1},
        {"y", DataSectionSpec::Dir::kOut, 0.04, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN, rng);
    FillZero(&inst.buffer(2), kN);
    FillZero(&inst.buffer(3), kN);
  }

  // A and x are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(2), kN);
    FillZero(&inst.buffer(3), kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    const std::vector<float>& a = inst.buffer(0);
    const std::vector<float>& x = inst.buffer(1);
    std::vector<float> tmp(kN, 0.0f);
    std::vector<float> y(kN, 0.0f);
    for (std::size_t i = 0; i < kN; ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < kN; ++j) {
        acc += a[i * kN + j] * x[j];
      }
      tmp[i] = acc;
    }
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t j = 0; j < kN; ++j) {
        y[j] += a[i * kN + j] * tmp[i];
      }
    }
    return Outputs({{3, std::move(y)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeAtax() { return std::make_unique<AtaxWorkload>(); }

}  // namespace fabacus

// BICG sub-kernel of BiCGStab: q = A p, s = A^T r — Table 2: 2 MBLKs
// (1 serial), 640 MB, LD/ST 46%, B/KI 72.3 (data-intensive).
//
// Buffers: 0 = A (N x N), 1 = p (N), 2 = r (N), 3 = q (N), 4 = s (N).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 768;

class BicgWorkload : public Workload {
 public:
  BicgWorkload() {
    spec_.name = "BICG";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.46;
    spec_.bki = 72.3;

    MicroblockSpec m0;
    m0.name = "q=A*p";
    m0.serial = false;
    m0.work_fraction = 0.5;
    SetMix(&m0, spec_.ldst_ratio, 0.40);
    m0.reuse_window_bytes = kN * sizeof(float) * 2;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      std::vector<float>& q = inst.buffer(3);
      RowDots(inst.buffer(0).data(), inst.buffer(1).data(), kN, begin, end,
              [&q](std::size_t i, float acc) { q[i] = acc; });
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "s=At*r";
    m1.serial = true;  // accumulates into s across rows
    m1.work_fraction = 0.5;
    SetMix(&m1, spec_.ldst_ratio, 0.40);
    m1.reuse_window_bytes = kN * sizeof(float) * 2;
    m1.func_iterations = kN;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      const std::vector<float>& a = inst.buffer(0);
      const std::vector<float>& r = inst.buffer(2);
      std::vector<float>& s = inst.buffer(4);
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = 0; j < kN; ++j) {
          s[j] += r[i] * a[i * kN + j];
        }
      }
    };
    spec_.microblocks.push_back(m1);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.9, 0},
        {"p", DataSectionSpec::Dir::kIn, 0.05, 1},
        {"r", DataSectionSpec::Dir::kIn, 0.05, 2},
        {"q", DataSectionSpec::Dir::kOut, 0.05, 3},
        {"s", DataSectionSpec::Dir::kOut, 0.05, 4},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(5);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN, rng);
    FillRandom(&inst.buffer(2), kN, rng);
    FillZero(&inst.buffer(3), kN);
    FillZero(&inst.buffer(4), kN);
  }

  // A, p and r are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(3), kN);
    FillZero(&inst.buffer(4), kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    const std::vector<float>& a = inst.buffer(0);
    const std::vector<float>& p = inst.buffer(1);
    const std::vector<float>& r = inst.buffer(2);
    std::vector<float> q(kN, 0.0f);
    std::vector<float> s(kN, 0.0f);
    for (std::size_t i = 0; i < kN; ++i) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < kN; ++j) {
        acc += a[i * kN + j] * p[j];
        s[j] += r[i] * a[i * kN + j];
      }
      q[i] = acc;
    }
    return Outputs({{3, std::move(q)}, {4, std::move(s)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeBicg() { return std::make_unique<BicgWorkload>(); }

}  // namespace fabacus

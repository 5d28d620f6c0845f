// 2MM: D = alpha A B C + beta D — Table 2: 2 MBLKs (1 serial), 2560 MB,
// LD/ST 33.33%, B/KI 3.76 (compute-intensive).
//
// Buffers: 0 = A, 1 = B, 2 = C, 3 = D (in/out), 4 = tmp = A B, 5 = pristine D.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 160;
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 1.2f;

void FirstProduct(const std::vector<float>& a, const std::vector<float>& b,
                  std::vector<float>* tmp, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      (*tmp)[i * kN + j] = 0.0f;
    }
    for (std::size_t k = 0; k < kN; ++k) {
      const float aik = kAlpha * a[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) {
        (*tmp)[i * kN + j] += aik * b[k * kN + j];
      }
    }
  }
}

void SecondProduct(const std::vector<float>& tmp, const std::vector<float>& c,
                   std::vector<float>* d, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      (*d)[i * kN + j] *= kBeta;
    }
    for (std::size_t k = 0; k < kN; ++k) {
      const float tik = tmp[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) {
        (*d)[i * kN + j] += tik * c[k * kN + j];
      }
    }
  }
}

class TwoMmWorkload : public Workload {
 public:
  TwoMmWorkload() {
    spec_.name = "2MM";
    spec_.model_input_mb = 2560.0;
    spec_.ldst_ratio = 0.3333;
    spec_.bki = 3.76;

    MicroblockSpec m0;
    m0.name = "tmp=A*B";
    m0.serial = false;
    m0.work_fraction = 0.5;
    SetMix(&m0, spec_.ldst_ratio, 0.45);
    m0.reuse_window_bytes = 24 * 1024;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      FirstProduct(inst.buffer(0), inst.buffer(1), &inst.buffer(4), begin, end);
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "D=tmp*C";
    m1.serial = true;
    m1.work_fraction = 0.5;
    SetMix(&m1, spec_.ldst_ratio, 0.45);
    m1.reuse_window_bytes = 24 * 1024;
    m1.func_iterations = kN;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      SecondProduct(inst.buffer(4), inst.buffer(2), &inst.buffer(3), begin, end);
    };
    spec_.microblocks.push_back(m1);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.25, 0},
        {"B", DataSectionSpec::Dir::kIn, 0.25, 1},
        {"C", DataSectionSpec::Dir::kIn, 0.25, 2},
        {"D_in", DataSectionSpec::Dir::kIn, 0.25, 3},
        {"D", DataSectionSpec::Dir::kOut, 0.25, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(6);
    for (int i = 0; i < 4; ++i) {
      FillRandom(&inst.buffer(i), kN * kN, rng);
    }
    FillZero(&inst.buffer(4), kN * kN);
    inst.buffer(5) = inst.buffer(3);
  }

  // A, B and C are read-only; D is updated in place from its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(3) = inst.buffer(5);
    FillZero(&inst.buffer(4), kN * kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> tmp(kN * kN);
    std::vector<float> d = inst.buffer(5);
    FirstProduct(inst.buffer(0), inst.buffer(1), &tmp, 0, kN);
    SecondProduct(tmp, inst.buffer(2), &d, 0, kN);
    return Outputs({{3, std::move(d)}});
  }
};

}  // namespace

std::unique_ptr<Workload> Make2mm() { return std::make_unique<TwoMmWorkload>(); }

}  // namespace fabacus

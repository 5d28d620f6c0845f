// SYR2K: C = alpha (A B^T + B A^T) + beta C — Table 2: 1 MBLK (0 serial),
// 1280 MB, LD/ST 30.19%, B/KI 1.85 (compute-intensive).
//
// Buffers: 0 = A, 1 = B, 2 = C (all N x N; C in/out).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 192;
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 1.2f;

// C[i][j] = beta C[i][j] + alpha * sum over k of (A[i][k] B[j][k] +
// B[i][k] A[j][k]). Each sum runs over k in ascending order from 0.0f;
// reading B[j][k] and A[j][k] from transposes lets all of row i's sums
// advance together, vectorized over j.
void Syr2kRows(const std::vector<float>& a, const std::vector<float>& b,
               std::vector<float>* c, std::size_t begin, std::size_t end) {
  const std::vector<float> at = Transpose(a, kN);
  const std::vector<float> bt = Transpose(b, kN);
  for (std::size_t i = begin; i < end; ++i) {
    float acc[kN] = {};
    for (std::size_t k = 0; k < kN; ++k) {
      const float aik = a[i * kN + k];
      const float bik = b[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) {
        acc[j] += aik * bt[k * kN + j] + bik * at[k * kN + j];
      }
    }
    for (std::size_t j = 0; j < kN; ++j) {
      (*c)[i * kN + j] = kBeta * (*c)[i * kN + j] + kAlpha * acc[j];
    }
  }
}

class Syr2kWorkload : public Workload {
 public:
  Syr2kWorkload() {
    spec_.name = "SYR2K";
    spec_.model_input_mb = 1280.0;
    spec_.ldst_ratio = 0.3019;
    spec_.bki = 1.85;

    MicroblockSpec m0;
    m0.name = "syr2k";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.45);
    m0.reuse_window_bytes = 24 * 1024;
    m0.stream_factor = 2.0;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Syr2kRows(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.34, 0},
        {"B", DataSectionSpec::Dir::kIn, 0.33, 1},
        {"C_in", DataSectionSpec::Dir::kIn, 0.33, 2},
        {"C", DataSectionSpec::Dir::kOut, 0.33, 2},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN * kN, rng);
    FillRandom(&inst.buffer(2), kN * kN, rng);
    inst.buffer(3) = inst.buffer(2);
  }

  // A and B are read-only; C is updated in place from its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(2) = inst.buffer(3);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> c = inst.buffer(3);
    Syr2kRows(inst.buffer(0), inst.buffer(1), &c, 0, kN);
    return Outputs({{2, std::move(c)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSyr2k() { return std::make_unique<Syr2kWorkload>(); }

}  // namespace fabacus

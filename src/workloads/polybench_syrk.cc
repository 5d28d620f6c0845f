// SYRK: C = alpha A A^T + beta C — Table 2: 1 MBLK (0 serial), 1280 MB,
// LD/ST 28.21%, B/KI 5.29 (compute-intensive).
//
// Buffers: 0 = A (N x N), 1 = C (N x N, in/out).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 192;
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 1.2f;

// C[i][j] = beta C[i][j] + alpha * sum over k of A[i][k] A[j][k]. Each sum
// runs over k in ascending order from 0.0f; reading A[j][k] from the
// transpose lets all of row i's sums advance together, vectorized over j.
void SyrkRows(const std::vector<float>& a, std::vector<float>* c, std::size_t begin,
              std::size_t end) {
  const std::vector<float> at = Transpose(a, kN);
  for (std::size_t i = begin; i < end; ++i) {
    float acc[kN] = {};
    for (std::size_t k = 0; k < kN; ++k) {
      const float aik = a[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) {
        acc[j] += aik * at[k * kN + j];
      }
    }
    for (std::size_t j = 0; j < kN; ++j) {
      (*c)[i * kN + j] = kBeta * (*c)[i * kN + j] + kAlpha * acc[j];
    }
  }
}

class SyrkWorkload : public Workload {
 public:
  SyrkWorkload() {
    spec_.name = "SYRK";
    spec_.model_input_mb = 1280.0;
    spec_.ldst_ratio = 0.2821;
    spec_.bki = 5.29;

    MicroblockSpec m0;
    m0.name = "syrk";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.45);
    m0.reuse_window_bytes = 24 * 1024;  // blocked rank-k tiles
    m0.stream_factor = 2.0;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      SyrkRows(inst.buffer(0), &inst.buffer(1), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.5, 0},
        {"C_in", DataSectionSpec::Dir::kIn, 0.5, 1},
        {"C", DataSectionSpec::Dir::kOut, 0.5, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(3);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN * kN, rng);
    inst.buffer(2) = inst.buffer(1);  // pristine C for verification
  }

  // A is read-only; C is updated in place from its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(1) = inst.buffer(2);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> c = inst.buffer(2);
    SyrkRows(inst.buffer(0), &c, 0, kN);
    return Outputs({{1, std::move(c)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSyrk() { return std::make_unique<SyrkWorkload>(); }

}  // namespace fabacus

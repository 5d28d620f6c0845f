// GEMM: C = alpha A B + beta C — Table 2: 1 MBLK (0 serial), 192 MB,
// LD/ST 30.77%, B/KI 5.29 (compute-intensive).
//
// Buffers: 0 = A, 1 = B, 2 = C (all N x N; C in/out).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 192;
constexpr float kAlpha = 1.5f;
constexpr float kBeta = 1.2f;

void GemmRows(const std::vector<float>& a, const std::vector<float>& b,
              std::vector<float>* c, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      (*c)[i * kN + j] *= kBeta;
    }
    for (std::size_t k = 0; k < kN; ++k) {
      const float aik = kAlpha * a[i * kN + k];
      for (std::size_t j = 0; j < kN; ++j) {
        (*c)[i * kN + j] += aik * b[k * kN + j];
      }
    }
  }
}

class GemmWorkload : public Workload {
 public:
  GemmWorkload() {
    spec_.name = "GEMM";
    spec_.model_input_mb = 192.0;
    spec_.ldst_ratio = 0.3077;
    spec_.bki = 5.29;

    MicroblockSpec m0;
    m0.name = "gemm";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.45);
    m0.reuse_window_bytes = 24 * 1024;
    m0.stream_factor = 2.0;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      GemmRows(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
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
    inst.buffer(3) = inst.buffer(2);  // pristine C
  }

  // A and B are read-only; C is updated in place from its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(2) = inst.buffer(3);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> c = inst.buffer(3);
    GemmRows(inst.buffer(0), inst.buffer(1), &c, 0, kN);
    return Outputs({{2, std::move(c)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeGemm() { return std::make_unique<GemmWorkload>(); }

}  // namespace fabacus

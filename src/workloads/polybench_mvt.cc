// MVT: x1 += A y1, x2 += A^T y2 — Table 2: 1 MBLK (0 serial), 640 MB,
// LD/ST 45.1%, B/KI 72.05 (data-intensive).
//
// Buffers: 0 = A (N x N), 1 = y1 (N), 2 = y2 (N), 3 = x1 (N), 4 = x2 (N).
// Both products are expressed per output row i, so the single microblock is
// fully parallel.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 768;

// x1[i] and x2[i] for rows [begin, end). Each sum runs over j in ascending
// order from 0.0f: x1's as eight-row dot products, x2's in row order (row j
// of A, scaled by y2[j], is added to every open sum), so no column of A is
// walked with a stride of kN.
void MvtRows(const AppInstance& inst, std::vector<float>* x1, std::vector<float>* x2,
             std::size_t begin, std::size_t end) {
  const std::vector<float>& a = inst.buffer(0);
  const std::vector<float>& y2 = inst.buffer(2);
  RowDots(a.data(), inst.buffer(1).data(), kN, begin, end,
          [x1](std::size_t i, float acc1) { (*x1)[i] += acc1; });
  float acc2[kN] = {};
  for (std::size_t j = 0; j < kN; ++j) {
    for (std::size_t i = begin; i < end; ++i) {
      acc2[i - begin] += a[j * kN + i] * y2[j];
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    (*x2)[i] += acc2[i - begin];
  }
}

class MvtWorkload : public Workload {
 public:
  MvtWorkload() {
    spec_.name = "MVT";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.451;
    spec_.bki = 72.05;

    MicroblockSpec m0;
    m0.name = "mvt";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.40);
    m0.reuse_window_bytes = kN * sizeof(float) * 3;
    m0.stream_factor = 2.0;  // streams A twice (row- and column-order)
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      MvtRows(inst, &inst.buffer(3), &inst.buffer(4), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.9, 0},
        {"y1", DataSectionSpec::Dir::kIn, 0.05, 1},
        {"y2", DataSectionSpec::Dir::kIn, 0.05, 2},
        {"x1", DataSectionSpec::Dir::kOut, 0.05, 3},
        {"x2", DataSectionSpec::Dir::kOut, 0.05, 4},
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

  // A, y1 and y2 are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(3), kN);
    FillZero(&inst.buffer(4), kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> x1(kN, 0.0f);
    std::vector<float> x2(kN, 0.0f);
    MvtRows(inst, &x1, &x2, 0, kN);
    return Outputs({{3, std::move(x1)}, {4, std::move(x2)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeMvt() { return std::make_unique<MvtWorkload>(); }

}  // namespace fabacus

// ADI: alternating-direction-implicit solver sweeps — Table 2: 3 MBLKs
// (1 serial), 1920 MB, LD/ST 23.96%, B/KI 35.59 (data-intensive).
//
// Buffers: 0 = u (N x N, in/out), 1 = a (N x N coefficients), 2 = v (N x N
// temporary). Microblock 0 performs the serial forward substitution along
// rows (loop-carried in j); microblocks 1 and 2 are the row-parallel update
// and the column-combination step.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 512;

void Sweep0(const std::vector<float>& a, std::vector<float>* u) {
  // Forward substitution along each row: v[i][j] depends on v[i][j-1].
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 1; j < kN; ++j) {
      (*u)[i * kN + j] += 0.5f * a[i * kN + j] * (*u)[i * kN + j - 1];
    }
  }
}

void Sweep1(const std::vector<float>& u, const std::vector<float>& a, std::vector<float>* v,
            std::size_t begin, std::size_t end) {
  // Row-parallel explicit update.
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      const float left = j > 0 ? u[i * kN + j - 1] : 0.0f;
      const float right = j + 1 < kN ? u[i * kN + j + 1] : 0.0f;
      (*v)[i * kN + j] = u[i * kN + j] + 0.25f * a[i * kN + j] * (left + right);
    }
  }
}

void Sweep2(const std::vector<float>& v, std::vector<float>* u, std::size_t begin,
            std::size_t end) {
  // Column combination, parallel across rows.
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      const float up = i > 0 ? v[(i - 1) * kN + j] : 0.0f;
      const float down = i + 1 < kN ? v[(i + 1) * kN + j] : 0.0f;
      (*u)[i * kN + j] = v[i * kN + j] + 0.125f * (up + down);
    }
  }
}

class AdiWorkload : public Workload {
 public:
  AdiWorkload() {
    spec_.name = "ADI";
    spec_.model_input_mb = 1920.0;
    spec_.ldst_ratio = 0.2396;
    spec_.bki = 35.59;

    MicroblockSpec m0;
    m0.name = "fwd_subst";
    m0.serial = true;
    m0.work_fraction = 0.3;
    SetMix(&m0, spec_.ldst_ratio, 0.30);
    m0.reuse_window_bytes = kN * sizeof(float) * 2;
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t, std::size_t) {
      Sweep0(inst.buffer(1), &inst.buffer(0));
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "row_update";
    m1.serial = false;
    m1.work_fraction = 0.35;
    SetMix(&m1, spec_.ldst_ratio, 0.30);
    m1.reuse_window_bytes = kN * sizeof(float) * 2;
    m1.func_iterations = kN;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Sweep1(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m1);

    MicroblockSpec m2;
    m2.name = "col_combine";
    m2.serial = false;
    m2.work_fraction = 0.35;
    SetMix(&m2, spec_.ldst_ratio, 0.30);
    m2.reuse_window_bytes = kN * sizeof(float) * 3;
    m2.func_iterations = kN;
    m2.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Sweep2(inst.buffer(2), &inst.buffer(0), begin, end);
    };
    spec_.microblocks.push_back(m2);

    spec_.sections = {
        {"u", DataSectionSpec::Dir::kIn, 0.5, 0},
        {"a", DataSectionSpec::Dir::kIn, 0.5, 1},
        {"u_out", DataSectionSpec::Dir::kOut, 0.5, 0},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(3);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillRandom(&inst.buffer(1), kN * kN, rng);
    FillZero(&inst.buffer(2), kN * kN);
  }

  // Reset keeps the default (prepare again): the sweeps update u in place
  // and no pristine copy of it is kept.

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    // Sweep2 writes u in place, so the original input is gone after a run.
    // The reference checks the *last* stage against the intermediate v
    // (buffer 2), which survives untouched after the run.
    std::vector<float> u(kN * kN, 0.0f);
    Sweep2(inst.buffer(2), &u, 0, kN);
    return Outputs({{0, std::move(u)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeAdi() { return std::make_unique<AdiWorkload>(); }

}  // namespace fabacus

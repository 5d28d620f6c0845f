// 3MM: G = (A B)(C D) — Table 2: 3 MBLKs (1 serial), 2560 MB, LD/ST 33.68%,
// B/KI 2.48 (compute-intensive).
//
// Buffers: 0 = A, 1 = B, 2 = C, 3 = D, 4 = E = A B, 5 = F = C D, 6 = G = E F.
// The final product is the serial microblock (the stage their port runs as a
// single instruction stream).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 160;

void MatmulRows(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>* c, std::size_t n, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      (*c)[i * n + j] = 0.0f;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const float aik = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        (*c)[i * n + j] += aik * b[k * n + j];
      }
    }
  }
}

class ThreeMmWorkload : public Workload {
 public:
  ThreeMmWorkload() {
    spec_.name = "3MM";
    spec_.model_input_mb = 2560.0;
    spec_.ldst_ratio = 0.3368;
    spec_.bki = 2.48;

    auto make_mblk = [this](const char* name, bool serial, double frac, int ia, int ib,
                            int ic) {
      MicroblockSpec m;
      m.name = name;
      m.serial = serial;
      m.work_fraction = frac;
      SetMix(&m, spec_.ldst_ratio, 0.45);
      m.reuse_window_bytes = 24 * 1024;
      m.stream_factor = 1.0;
      m.func_iterations = kN;
      m.body = [ia, ib, ic](AppInstance& inst, std::size_t begin, std::size_t end) {
        MatmulRows(inst.buffer(ia), inst.buffer(ib), &inst.buffer(ic), kN, begin, end);
      };
      spec_.microblocks.push_back(m);
    };
    make_mblk("E=A*B", false, 0.34, 0, 1, 4);
    make_mblk("F=C*D", false, 0.33, 2, 3, 5);
    make_mblk("G=E*F", true, 0.33, 4, 5, 6);

    spec_.sections = {
        {"A", DataSectionSpec::Dir::kIn, 0.25, 0},
        {"B", DataSectionSpec::Dir::kIn, 0.25, 1},
        {"C", DataSectionSpec::Dir::kIn, 0.25, 2},
        {"D", DataSectionSpec::Dir::kIn, 0.25, 3},
        {"G", DataSectionSpec::Dir::kOut, 0.25, 6},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(7);
    for (int i = 0; i < 4; ++i) {
      FillRandom(&inst.buffer(i), kN * kN, rng);
    }
    for (int i = 4; i < 7; ++i) {
      FillZero(&inst.buffer(i), kN * kN);
    }
  }

  // A-D are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    for (int i = 4; i < 7; ++i) {
      FillZero(&inst.buffer(i), kN * kN);
    }
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> e(kN * kN);
    std::vector<float> f(kN * kN);
    std::vector<float> g(kN * kN);
    MatmulRows(inst.buffer(0), inst.buffer(1), &e, kN, 0, kN);
    MatmulRows(inst.buffer(2), inst.buffer(3), &f, kN, 0, kN);
    MatmulRows(e, f, &g, kN, 0, kN);
    return Outputs({{6, std::move(g)}});
  }
};

}  // namespace

std::unique_ptr<Workload> Make3mm() { return std::make_unique<ThreeMmWorkload>(); }

}  // namespace fabacus

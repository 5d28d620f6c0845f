// 2DCONV: 3x3 convolution over an N x N image — Table 2: 1 MBLK (0 serial),
// 640 MB, LD/ST 23.96%, B/KI 35.59 (data-intensive).
//
// Buffers: 0 = input image (N x N), 1 = output image (N x N).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kN = 1024;

// PolyBench's conv-2d coefficient set.
constexpr float kC[3][3] = {{0.2f, -0.3f, 0.4f}, {-0.5f, 0.6f, -0.7f}, {0.8f, -0.9f, 0.10f}};

void ConvRows(const std::vector<float>& in, std::vector<float>* out, std::size_t row_begin,
              std::size_t row_end) {
  for (std::size_t i = std::max<std::size_t>(row_begin, 1); i < std::min(row_end, kN - 1);
       ++i) {
    for (std::size_t j = 1; j < kN - 1; ++j) {
      float acc = 0.0f;
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          const std::size_t ii = i + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(di));
          const std::size_t jj = j + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(dj));
          acc += kC[di + 1][dj + 1] * in[ii * kN + jj];
        }
      }
      (*out)[i * kN + j] = acc;
    }
  }
}

class Conv2dWorkload : public Workload {
 public:
  Conv2dWorkload() {
    spec_.name = "2DCON";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.2396;
    spec_.bki = 35.59;

    MicroblockSpec m0;
    m0.name = "conv3x3";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.35);
    m0.reuse_window_bytes = 3 * kN * sizeof(float);  // three live rows
    m0.func_iterations = kN;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      ConvRows(inst.buffer(0), &inst.buffer(1), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"img_in", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"img_out", DataSectionSpec::Dir::kOut, 1.0, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    FillRandom(&inst.buffer(0), kN * kN, rng);
    FillZero(&inst.buffer(1), kN * kN);
  }

  // The input image is read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(1), kN * kN);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kN * kN, 0.0f);
    ConvRows(inst.buffer(0), &ref, 0, kN);
    return Outputs({{1, std::move(ref)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeConv2d() { return std::make_unique<Conv2dWorkload>(); }

}  // namespace fabacus

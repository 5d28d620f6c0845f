// nw: DNA sequence alignment (Needleman-Wunsch style), §5.6. The alignment
// is banded: independent horizontal bands each run their own DP, so the
// single microblock is fully parallel ("nw and path" have no serialized
// microblocks in the paper).
//
// Buffers: 0 = sequence 1 (L), 1 = sequence 2 (L), 2 = band scores
//          (kBands x L, out): the last DP row of each band.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kL = 1024;
constexpr std::size_t kBands = 32;
constexpr std::size_t kBandRows = kL / kBands;
constexpr float kGap = 1.0f;

float Match(float a, float b) { return a * b > 0.0f ? 2.0f : -1.0f; }

// DP for bands [band_begin, band_end); writes each band's final row.
void AlignBands(const std::vector<float>& s1, const std::vector<float>& s2,
                std::vector<float>* out, std::size_t band_begin, std::size_t band_end) {
  std::vector<float> prev(kL + 1);
  std::vector<float> cur(kL + 1);
  for (std::size_t b = band_begin; b < band_end; ++b) {
    for (std::size_t j = 0; j <= kL; ++j) {
      prev[j] = -kGap * static_cast<float>(j);
    }
    for (std::size_t r = 0; r < kBandRows; ++r) {
      const std::size_t i = b * kBandRows + r;
      cur[0] = -kGap * static_cast<float>(r + 1);
      for (std::size_t j = 1; j <= kL; ++j) {
        const float diag = prev[j - 1] + Match(s1[i], s2[j - 1]);
        const float up = prev[j] - kGap;
        const float left = cur[j - 1] - kGap;
        cur[j] = std::max({diag, up, left});
      }
      std::swap(prev, cur);
    }
    for (std::size_t j = 0; j < kL; ++j) {
      (*out)[b * kL + j] = prev[j + 1];
    }
  }
}

class NwWorkload : public Workload {
 public:
  NwWorkload() {
    spec_.name = "nw";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.35;
    spec_.bki = 25.0;

    MicroblockSpec m0;
    m0.name = "align_bands";
    m0.serial = false;
    m0.work_fraction = 1.0;
    SetMix(&m0, spec_.ldst_ratio, 0.20);
    m0.reuse_window_bytes = 2 * (kL + 1) * sizeof(float);
    m0.func_iterations = kBands;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      AlignBands(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m0);

    spec_.sections = {
        {"seq1", DataSectionSpec::Dir::kIn, 0.5, 0},
        {"seq2", DataSectionSpec::Dir::kIn, 0.5, 1},
        {"scores", DataSectionSpec::Dir::kOut, 0.5, 2},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(3);
    FillRandom(&inst.buffer(0), kL, rng);
    FillRandom(&inst.buffer(1), kL, rng);
    FillZero(&inst.buffer(2), kBands * kL);
  }

  // Both sequences are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(2), kBands * kL);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kBands * kL, 0.0f);
    AlignBands(inst.buffer(0), inst.buffer(1), &ref, 0, kBands);
    return Outputs({{2, std::move(ref)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeNw() { return std::make_unique<NwWorkload>(); }

}  // namespace fabacus

// CORR: correlation matrix — Table 2: 4 MBLKs (1 serial), 640 MB,
// LD/ST 33.04%, B/KI 2.79 (compute-intensive).
//
// Buffers: 0 = data (N x M, normalized in place), 1 = mean (M),
//          2 = stddev (M), 3 = corr (M x M), 4 = pristine data.
// m0 (serial): means; m1 (parallel over columns): stddev; m2 (parallel over
// samples): normalize; m3 (parallel over feature rows): correlation.
#include <cmath>

#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kNSamples = 256;
constexpr std::size_t kM = 256;
constexpr float kEps = 0.1f;

// The column reductions below run in row order: each output keeps a sum
// in a per-column accumulator and adds its term from every sample i in
// ascending order, so it sums exactly what a walk down the column would,
// while the inner loop runs along a row and vectorizes.
void Means(const std::vector<float>& data, std::vector<float>* mean) {
  float acc[kM] = {};
  for (std::size_t i = 0; i < kNSamples; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      acc[j] += data[i * kM + j];
    }
  }
  for (std::size_t j = 0; j < kM; ++j) {
    (*mean)[j] = acc[j] / static_cast<float>(kNSamples);
  }
}

void Stddevs(const std::vector<float>& data, const std::vector<float>& mean,
             std::vector<float>* sd, std::size_t begin, std::size_t end) {
  float acc[kM] = {};
  for (std::size_t i = 0; i < kNSamples; ++i) {
    for (std::size_t j = begin; j < end; ++j) {
      const float d = data[i * kM + j] - mean[j];
      acc[j] += d * d;
    }
  }
  for (std::size_t j = begin; j < end; ++j) {
    const float v = std::sqrt(acc[j] / static_cast<float>(kNSamples));
    (*sd)[j] = v <= kEps ? 1.0f : v;
  }
}

void Normalize(std::vector<float>* data, const std::vector<float>& mean,
               const std::vector<float>& sd, std::size_t begin, std::size_t end) {
  const float scale = std::sqrt(static_cast<float>(kNSamples));
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      (*data)[i * kM + j] = ((*data)[i * kM + j] - mean[j]) / (scale * sd[j]);
    }
  }
}

void CorrRows(const std::vector<float>& data, std::vector<float>* corr, std::size_t begin,
              std::size_t end) {
  for (std::size_t j1 = begin; j1 < end; ++j1) {
    float acc[kM] = {};
    for (std::size_t i = 0; i < kNSamples; ++i) {
      const float d1 = data[i * kM + j1];
      for (std::size_t j2 = 0; j2 < kM; ++j2) {
        acc[j2] += d1 * data[i * kM + j2];
      }
    }
    for (std::size_t j2 = 0; j2 < kM; ++j2) {
      (*corr)[j1 * kM + j2] = j2 == j1 ? 1.0f : acc[j2];
    }
  }
}

class CorrWorkload : public Workload {
 public:
  CorrWorkload() {
    spec_.name = "CORR";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.3304;
    spec_.bki = 2.79;

    MicroblockSpec m0;
    m0.name = "means";
    m0.serial = true;
    m0.work_fraction = 0.05;
    SetMix(&m0, spec_.ldst_ratio, 0.30);
    m0.func_iterations = kM;
    m0.body = [](AppInstance& inst, std::size_t, std::size_t) {
      Means(inst.buffer(0), &inst.buffer(1));
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "stddev";
    m1.serial = false;
    m1.work_fraction = 0.07;
    SetMix(&m1, spec_.ldst_ratio, 0.30);
    m1.func_iterations = kM;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Stddevs(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m1);

    MicroblockSpec m2;
    m2.name = "normalize";
    m2.serial = false;
    m2.work_fraction = 0.08;
    SetMix(&m2, spec_.ldst_ratio, 0.30);
    m2.func_iterations = kNSamples;
    m2.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Normalize(&inst.buffer(0), inst.buffer(1), inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m2);

    MicroblockSpec m3;
    m3.name = "corr";
    m3.serial = false;
    m3.work_fraction = 0.8;
    SetMix(&m3, spec_.ldst_ratio, 0.45);
    m3.reuse_window_bytes = 24 * 1024;
    m3.stream_factor = 2.0;
    m3.func_iterations = kM;
    m3.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      CorrRows(inst.buffer(0), &inst.buffer(3), begin, end);
    };
    spec_.microblocks.push_back(m3);

    spec_.sections = {
        {"data", DataSectionSpec::Dir::kIn, 0.5, 0},
        {"corr", DataSectionSpec::Dir::kOut, 0.5, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(5);
    FillRandom(&inst.buffer(0), kNSamples * kM, rng);
    FillZero(&inst.buffer(1), kM);
    FillZero(&inst.buffer(2), kM);
    FillZero(&inst.buffer(3), kM * kM);
    inst.buffer(4) = inst.buffer(0);
  }

  // data is normalized in place; buffer 4 is its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(0) = inst.buffer(4);
    FillZero(&inst.buffer(1), kM);
    FillZero(&inst.buffer(2), kM);
    FillZero(&inst.buffer(3), kM * kM);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> data = inst.buffer(4);
    std::vector<float> mean(kM, 0.0f);
    std::vector<float> sd(kM, 0.0f);
    std::vector<float> corr(kM * kM, 0.0f);
    Means(data, &mean);
    Stddevs(data, mean, &sd, 0, kM);
    Normalize(&data, mean, sd, 0, kNSamples);
    CorrRows(data, &corr, 0, kM);
    return Outputs({{3, std::move(corr), 5e-4f}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeCorr() { return std::make_unique<CorrWorkload>(); }

}  // namespace fabacus

// COVAR: covariance matrix of an N x M data set — Table 2: 3 MBLKs
// (1 serial), 640 MB, LD/ST 34.33%, B/KI 2.86 (compute-intensive).
//
// Buffers: 0 = data (N samples x M features, in/centered in place),
//          1 = mean (M), 2 = cov (M x M), 3 = pristine data.
// m0 (serial): column means; m1 (parallel over samples): center the data;
// m2 (parallel over feature rows): covariance.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kNSamples = 256;
constexpr std::size_t kM = 256;

void ColumnMeans(const std::vector<float>& data, std::vector<float>* mean) {
  for (std::size_t j = 0; j < kM; ++j) {
    (*mean)[j] = 0.0f;
  }
  for (std::size_t i = 0; i < kNSamples; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      (*mean)[j] += data[i * kM + j];
    }
  }
  for (std::size_t j = 0; j < kM; ++j) {
    (*mean)[j] /= static_cast<float>(kNSamples);
  }
}

void CenterRows(std::vector<float>* data, const std::vector<float>& mean, std::size_t begin,
                std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < kM; ++j) {
      (*data)[i * kM + j] -= mean[j];
    }
  }
}

// Row j1 of the covariance in row order: cov[j1][j2] sums data[i][j1] *
// data[i][j2] over samples i in ascending order, one accumulator per j2, so
// the inner loop runs along a data row and vectorizes.
void CovRows(const std::vector<float>& data, std::vector<float>* cov, std::size_t begin,
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
      (*cov)[j1 * kM + j2] = acc[j2] / static_cast<float>(kNSamples - 1);
    }
  }
}

class CovarWorkload : public Workload {
 public:
  CovarWorkload() {
    spec_.name = "COVAR";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.3433;
    spec_.bki = 2.86;

    MicroblockSpec m0;
    m0.name = "means";
    m0.serial = true;
    m0.work_fraction = 0.05;
    SetMix(&m0, spec_.ldst_ratio, 0.30);
    m0.func_iterations = kM;
    m0.body = [](AppInstance& inst, std::size_t, std::size_t) {
      ColumnMeans(inst.buffer(0), &inst.buffer(1));
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "center";
    m1.serial = false;
    m1.work_fraction = 0.1;
    SetMix(&m1, spec_.ldst_ratio, 0.30);
    m1.func_iterations = kNSamples;
    m1.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      CenterRows(&inst.buffer(0), inst.buffer(1), begin, end);
    };
    spec_.microblocks.push_back(m1);

    MicroblockSpec m2;
    m2.name = "cov";
    m2.serial = false;
    m2.work_fraction = 0.85;
    SetMix(&m2, spec_.ldst_ratio, 0.45);
    m2.reuse_window_bytes = 24 * 1024;
    m2.stream_factor = 2.0;
    m2.func_iterations = kM;
    m2.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      CovRows(inst.buffer(0), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m2);

    spec_.sections = {
        {"data", DataSectionSpec::Dir::kIn, 0.5, 0},
        {"cov", DataSectionSpec::Dir::kOut, 0.5, 2},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), kNSamples * kM, rng);
    FillZero(&inst.buffer(1), kM);
    FillZero(&inst.buffer(2), kM * kM);
    inst.buffer(3) = inst.buffer(0);
  }

  // data is centered in place; buffer 3 is its pristine copy.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(0) = inst.buffer(3);
    FillZero(&inst.buffer(1), kM);
    FillZero(&inst.buffer(2), kM * kM);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> data = inst.buffer(3);
    std::vector<float> mean(kM, 0.0f);
    std::vector<float> cov(kM * kM, 0.0f);
    ColumnMeans(data, &mean);
    CenterRows(&data, mean, 0, kNSamples);
    CovRows(data, &cov, 0, kM);
    return Outputs({{2, std::move(cov), 5e-4f}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeCovar() { return std::make_unique<CovarWorkload>(); }

}  // namespace fabacus

// nn: k-nearest-neighbour search (Rodinia-style), §5.6. Distance evaluation
// is embarrassingly parallel; the top-k selection is the serial microblock.
//
// Buffers: 0 = points (2 floats each), 1 = query (2), 2 = distances (P),
//          3 = k nearest distances (K, out, ascending).
#include <cmath>

#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kPoints = 131072;
constexpr std::size_t kK = 16;

void ComputeDistances(const std::vector<float>& pts, const std::vector<float>& query,
                      std::vector<float>* dist, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const float dx = pts[2 * i] - query[0];
    const float dy = pts[2 * i + 1] - query[1];
    (*dist)[i] = std::sqrt(dx * dx + dy * dy);
  }
}

void SelectTopK(const std::vector<float>& dist, std::vector<float>* topk) {
  topk->assign(kK, 1e30f);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const float d = dist[i];
    if (d < (*topk)[kK - 1]) {
      // Insertion into the sorted top-k window.
      std::size_t pos = kK - 1;
      while (pos > 0 && (*topk)[pos - 1] > d) {
        (*topk)[pos] = (*topk)[pos - 1];
        --pos;
      }
      (*topk)[pos] = d;
    }
  }
}

class NnWorkload : public Workload {
 public:
  NnWorkload() {
    spec_.name = "nn";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.45;
    spec_.bki = 60.0;

    MicroblockSpec m0;
    m0.name = "distances";
    m0.serial = false;
    m0.work_fraction = 0.8;
    SetMix(&m0, spec_.ldst_ratio, 0.35);
    m0.func_iterations = kPoints;
    m0.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      ComputeDistances(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
    };
    spec_.microblocks.push_back(m0);

    MicroblockSpec m1;
    m1.name = "topk";
    m1.serial = true;
    m1.work_fraction = 0.2;
    SetMix(&m1, spec_.ldst_ratio, 0.10);
    m1.func_iterations = kPoints;
    m1.body = [](AppInstance& inst, std::size_t, std::size_t) {
      SelectTopK(inst.buffer(2), &inst.buffer(3));
    };
    spec_.microblocks.push_back(m1);

    spec_.sections = {
        {"points", DataSectionSpec::Dir::kIn, 0.95, 0},
        {"query", DataSectionSpec::Dir::kIn, 0.05, 1},
        {"topk", DataSectionSpec::Dir::kOut, 0.05, 3},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), 2 * kPoints, rng);
    FillRandom(&inst.buffer(1), 2, rng);
    FillZero(&inst.buffer(2), kPoints);
    FillZero(&inst.buffer(3), kK);
  }

  // The points and the query are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(2), kPoints);
    FillZero(&inst.buffer(3), kK);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> dist(kPoints, 0.0f);
    std::vector<float> topk;
    ComputeDistances(inst.buffer(0), inst.buffer(1), &dist, 0, kPoints);
    SelectTopK(dist, &topk);
    return Outputs({{3, std::move(topk)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeNn() { return std::make_unique<NnWorkload>(); }

}  // namespace fabacus

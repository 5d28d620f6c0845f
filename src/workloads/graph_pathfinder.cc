// path: grid traversal (Rodinia pathfinder style), §5.6. Dynamic programming
// over grid rows; each row update is parallel across columns (neighbour reads
// hit only the previous row), so there are no serial microblocks — one
// parallel microblock per DP row.
//
// Buffers: 0 = cost grid ((kRows+1) x C), 1 = result row (C, out),
//          2/3 = ping-pong DP rows.
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kCols = 65536;
constexpr std::size_t kRows = 8;  // DP steps -> 8 parallel microblocks

void StepRow(const std::vector<float>& cost, const std::vector<float>& prev,
             std::vector<float>* next, std::size_t row, std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    float best = prev[j];
    if (j > 0) {
      best = std::min(best, prev[j - 1]);
    }
    if (j + 1 < kCols) {
      best = std::min(best, prev[j + 1]);
    }
    (*next)[j] = cost[row * kCols + j] + best;
  }
}

class PathfinderWorkload : public Workload {
 public:
  PathfinderWorkload() {
    spec_.name = "path";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.38;
    spec_.bki = 40.0;

    for (std::size_t r = 1; r <= kRows; ++r) {
      MicroblockSpec m;
      m.name = "row" + std::to_string(r);
      m.serial = false;
      m.work_fraction = 1.0 / kRows;
      SetMix(&m, spec_.ldst_ratio, 0.15);
      m.reuse_window_bytes = 3 * kCols / 8 * sizeof(float);
      m.func_iterations = kCols;
      const bool last = r == kRows;
      m.body = [r, last](AppInstance& inst, std::size_t begin, std::size_t end) {
        // Ping-pong between buffers 2 and 3; the final row lands in buffer 1.
        const int src = (r % 2 == 1) ? 2 : 3;
        const int dst = last ? 1 : ((r % 2 == 1) ? 3 : 2);
        StepRow(inst.buffer(0), inst.buffer(src), &inst.buffer(dst), r, begin, end);
      };
      spec_.microblocks.push_back(m);
    }

    spec_.sections = {
        {"cost", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"result", DataSectionSpec::Dir::kOut, 0.1, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(4);
    FillRandom(&inst.buffer(0), (kRows + 1) * kCols, rng);
    ResetRows(inst);
  }

  // The cost grid is read-only; the DP rows restart from its row 0.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override { ResetRows(inst); }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> prev(kCols);
    std::copy_n(inst.buffer(0).begin(), kCols, prev.begin());
    std::vector<float> next(kCols, 0.0f);
    for (std::size_t r = 1; r <= kRows; ++r) {
      StepRow(inst.buffer(0), prev, &next, r, 0, kCols);
      std::swap(prev, next);
    }
    return Outputs({{1, std::move(prev)}});
  }

 private:
  static void ResetRows(AppInstance& inst) {
    FillZero(&inst.buffer(1), kCols);
    // DP row 0 = cost row 0.
    std::vector<float>& prev = inst.buffer(2);
    prev.resize(kCols);
    std::copy_n(inst.buffer(0).begin(), kCols, prev.begin());
    FillZero(&inst.buffer(3), kCols);
  }
};

}  // namespace

std::unique_ptr<Workload> MakePathfinder() { return std::make_unique<PathfinderWorkload>(); }

}  // namespace fabacus

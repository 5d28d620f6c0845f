// bfs: level-synchronous graph traversal (Rodinia-style), §5.6. Three
// Bellman-Ford-style relaxation rounds; each round is a parallel edge-relax
// microblock followed by a serial frontier-merge microblock ("bfs and nn"
// are the graph workloads with serial microblocks in the paper).
//
// Buffers: 0 = edges (2 floats per edge: src, dst), 1 = levels (N, in/out),
//          2 = next levels (N, scratch).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kNodes = 32768;
constexpr std::size_t kEdges = 131072;
constexpr int kRounds = 3;
constexpr float kInf = 1e9f;

void RelaxEdges(const std::vector<float>& edges, const std::vector<float>& levels,
                std::vector<float>* next, std::size_t begin, std::size_t end) {
  for (std::size_t e = begin; e < end; ++e) {
    const std::size_t src = static_cast<std::size_t>(edges[2 * e]);
    const std::size_t dst = static_cast<std::size_t>(edges[2 * e + 1]);
    const float cand = levels[src] + 1.0f;
    if (cand < (*next)[dst]) {
      (*next)[dst] = cand;
    }
  }
}

void MergeFrontier(std::vector<float>* levels, std::vector<float>* next) {
  for (std::size_t v = 0; v < kNodes; ++v) {
    if ((*next)[v] < (*levels)[v]) {
      (*levels)[v] = (*next)[v];
    }
    (*next)[v] = (*levels)[v];
  }
}

class BfsWorkload : public Workload {
 public:
  BfsWorkload() {
    spec_.name = "bfs";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.42;
    spec_.bki = 45.0;

    const double relax_frac = 0.8 / kRounds;
    const double merge_frac = 0.2 / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      MicroblockSpec relax;
      relax.name = "relax" + std::to_string(r);
      relax.serial = false;
      relax.work_fraction = relax_frac;
      SetMix(&relax, spec_.ldst_ratio, 0.15);
      relax.reuse_window_bytes = 256 * 1024;  // scattered level accesses
      relax.func_iterations = kEdges;
      relax.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
        RelaxEdges(inst.buffer(0), inst.buffer(1), &inst.buffer(2), begin, end);
      };
      spec_.microblocks.push_back(relax);

      MicroblockSpec merge;
      merge.name = "merge" + std::to_string(r);
      merge.serial = true;
      merge.work_fraction = merge_frac;
      SetMix(&merge, spec_.ldst_ratio, 0.10);
      merge.func_iterations = kNodes;
      merge.body = [](AppInstance& inst, std::size_t, std::size_t) {
        MergeFrontier(&inst.buffer(1), &inst.buffer(2));
      };
      spec_.microblocks.push_back(merge);
    }

    spec_.sections = {
        {"edges", DataSectionSpec::Dir::kIn, 0.8, 0},
        {"levels_in", DataSectionSpec::Dir::kIn, 0.2, 1},
        {"levels", DataSectionSpec::Dir::kOut, 0.2, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(3);
    std::vector<float>& edges = inst.buffer(0);
    edges.resize(2 * kEdges);
    for (std::size_t e = 0; e < kEdges; ++e) {
      edges[2 * e] = static_cast<float>(rng.NextBelow(kNodes));
      edges[2 * e + 1] = static_cast<float>(rng.NextBelow(kNodes));
    }
    ResetLevels(inst);
  }

  // The edge list is read-only; the levels restart from the source.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override { ResetLevels(inst); }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    const std::vector<float>& edges = inst.buffer(0);
    std::vector<float> levels(kNodes, kInf);
    levels[0] = 0.0f;
    std::vector<float> next = levels;
    for (int r = 0; r < kRounds; ++r) {
      RelaxEdges(edges, levels, &next, 0, kEdges);
      MergeFrontier(&levels, &next);
    }
    return Outputs({{1, std::move(levels)}});
  }

 private:
  static void ResetLevels(AppInstance& inst) {
    std::vector<float>& levels = inst.buffer(1);
    levels.assign(kNodes, kInf);
    levels[0] = 0.0f;  // source
    inst.buffer(2).assign(kNodes, kInf);
    inst.buffer(2)[0] = 0.0f;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeBfs() { return std::make_unique<BfsWorkload>(); }

}  // namespace fabacus

// wc: MapReduce wordcount (Mars-style), §5.6. The map phase classifies each
// token in parallel; the reduce phase builds the histogram serially.
//
// Buffers: 0 = tokens (P), 1 = counts (V, out), 2 = classes (P, scratch).
#include "src/workloads/polybench_util.h"
#include "src/workloads/workload.h"

namespace fabacus {
namespace {

constexpr std::size_t kTokens = 262144;
constexpr std::size_t kVocab = 1024;

std::size_t Classify(float token) {
  // A small "hash" standing in for tokenization: deterministic and cheap.
  const std::uint32_t h = static_cast<std::uint32_t>(token * 7919.0f) * 2654435761u;
  return h % kVocab;
}

class WordcountWorkload : public Workload {
 public:
  WordcountWorkload() {
    spec_.name = "wc";
    spec_.model_input_mb = 640.0;
    spec_.ldst_ratio = 0.40;
    spec_.bki = 55.0;

    MicroblockSpec map;
    map.name = "map";
    map.serial = false;
    map.work_fraction = 0.7;
    SetMix(&map, spec_.ldst_ratio, 0.20);
    map.func_iterations = kTokens;
    map.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      const std::vector<float>& tokens = inst.buffer(0);
      std::vector<float>& classes = inst.buffer(2);
      for (std::size_t i = begin; i < end; ++i) {
        classes[i] = static_cast<float>(Classify(tokens[i]));
      }
    };
    spec_.microblocks.push_back(map);

    MicroblockSpec reduce;
    reduce.name = "reduce";
    reduce.serial = true;
    reduce.work_fraction = 0.3;
    SetMix(&reduce, spec_.ldst_ratio, 0.10);
    reduce.func_iterations = kTokens;
    reduce.body = [](AppInstance& inst, std::size_t, std::size_t) {
      const std::vector<float>& classes = inst.buffer(2);
      std::vector<float>& counts = inst.buffer(1);
      for (std::size_t i = 0; i < kTokens; ++i) {
        counts[static_cast<std::size_t>(classes[i])] += 1.0f;
      }
    };
    spec_.microblocks.push_back(reduce);

    spec_.sections = {
        {"tokens", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"counts", DataSectionSpec::Dir::kOut, 0.05, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(3);
    FillRandom(&inst.buffer(0), kTokens, rng);
    FillZero(&inst.buffer(1), kVocab);
    FillZero(&inst.buffer(2), kTokens);
  }

  // The tokens are read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(1), kVocab);
    FillZero(&inst.buffer(2), kTokens);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    const std::vector<float>& tokens = inst.buffer(0);
    std::vector<float> counts(kVocab, 0.0f);
    for (std::size_t i = 0; i < kTokens; ++i) {
      counts[Classify(tokens[i])] += 1.0f;
    }
    return Outputs({{1, std::move(counts)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWordcount() { return std::make_unique<WordcountWorkload>(); }

}  // namespace fabacus

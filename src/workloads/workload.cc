#include "src/workloads/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/sim/log.h"

namespace fabacus {

// |a - b| <= rel_tol * max(|a|, |b|, 1), tested as three comparisons: a
// rounded product is monotone in its operand, so rel_tol * max(...) is the
// largest of the three products and the disjunction is the same predicate.
// The loop has no data-dependent branch inside a block (a branch on which
// of the three is largest mispredicts on outputs near +-1), so it
// vectorizes. A NaN or infinity on either side fails.
bool NearlyEqual(const std::vector<float>& a, const std::vector<float>& b, float rel_tol) {
  if (a.size() != b.size()) {
    return false;
  }
  constexpr std::size_t kBlock = 1024;
  constexpr float kMaxFinite = std::numeric_limits<float>::max();
  for (std::size_t begin = 0; begin < a.size(); begin += kBlock) {
    const std::size_t end = std::min(a.size(), begin + kBlock);
    int within = 1;  // an int, not a bool, so the AND-reduction vectorizes
    for (std::size_t i = begin; i < end; ++i) {
      const float x = std::fabs(a[i]);
      const float y = std::fabs(b[i]);
      const float diff = std::fabs(a[i] - b[i]);
      within &= (x <= kMaxFinite) & (y <= kMaxFinite) &
                ((diff <= rel_tol * x) | (diff <= rel_tol * y) | (diff <= rel_tol));
    }
    if (!within) {
      return false;
    }
  }
  return true;
}

void Workload::Reset(AppInstance& inst, std::uint64_t seed) const {
  Rng rng(seed);
  Prepare(inst, rng);
}

bool Workload::Matches(const AppInstance& inst, const std::vector<Expected>& expected) {
  for (const Expected& e : expected) {
    if (e.buffer < 0 || static_cast<std::size_t>(e.buffer) >= inst.buffers().size() ||
        !NearlyEqual(inst.buffer(e.buffer), e.values, e.rel_tol)) {
      return false;
    }
  }
  return true;
}

WorkloadRegistry::WorkloadRegistry() {
  auto add = [this](std::unique_ptr<Workload> w, std::vector<const Workload*>* group) {
    group->push_back(w.get());
    all_.push_back(w.get());
    owned_.push_back(std::move(w));
  };
  // Table 2 order.
  add(MakeAtax(), &polybench_);
  add(MakeBicg(), &polybench_);
  add(MakeConv2d(), &polybench_);
  add(MakeMvt(), &polybench_);
  add(MakeAdi(), &polybench_);
  add(MakeFdtd(), &polybench_);
  add(MakeGesummv(), &polybench_);
  add(MakeSyrk(), &polybench_);
  add(Make3mm(), &polybench_);
  add(MakeCovar(), &polybench_);
  add(MakeGemm(), &polybench_);
  add(Make2mm(), &polybench_);
  add(MakeSyr2k(), &polybench_);
  add(MakeCorr(), &polybench_);
  // §5.6 graph / bigdata applications.
  add(MakeBfs(), &graph_);
  add(MakeWordcount(), &graph_);
  add(MakeNn(), &graph_);
  add(MakeNw(), &graph_);
  add(MakePathfinder(), &graph_);
}

const WorkloadRegistry& WorkloadRegistry::Get() {
  static const WorkloadRegistry* registry = new WorkloadRegistry();
  return *registry;
}

const Workload* WorkloadRegistry::Find(const std::string& name) const {
  for (const Workload* w : all_) {
    if (w->name() == name) {
      return w;
    }
  }
  return nullptr;
}

std::vector<const Workload*> WorkloadRegistry::Mix(int i) const {
  FAB_CHECK_GE(i, 1);
  FAB_CHECK_LE(i, kNumMixes);
  // Six applications per mix. The paper's exact memberships (Table 2, right
  // half) are not recoverable from the text; these mixes respect its stated
  // constraints — MX1 is four data-intensive kernels followed by two
  // compute-intensive ones (Fig 12b), and the data/compute balance varies
  // across mixes. Names use Table 2 spellings.
  static const char* kMixes[kNumMixes][6] = {
      {"ATAX", "BICG", "2DCON", "MVT", "GEMM", "2MM"},       // MX1
      {"BICG", "MVT", "GESUM", "ADI", "SYRK", "COVAR"},      // MX2
      {"ATAX", "2DCON", "FDTD", "GESUM", "3MM", "SYR2K"},    // MX3
      {"MVT", "ADI", "FDTD", "CORR", "COVAR", "GEMM"},       // MX4
      {"ATAX", "BICG", "GESUM", "SYRK", "2MM", "CORR"},      // MX5
      {"2DCON", "MVT", "ADI", "FDTD", "GEMM", "SYR2K"},      // MX6
      {"ATAX", "MVT", "GESUM", "COVAR", "3MM", "CORR"},      // MX7
      {"BICG", "2DCON", "ADI", "SYRK", "GEMM", "2MM"},       // MX8
      {"MVT", "FDTD", "GESUM", "3MM", "SYR2K", "CORR"},      // MX9
      {"ATAX", "ADI", "FDTD", "SYRK", "COVAR", "2MM"},       // MX10
      {"BICG", "GESUM", "2DCON", "GEMM", "3MM", "CORR"},     // MX11
      {"ATAX", "MVT", "FDTD", "SYRK", "SYR2K", "COVAR"},     // MX12
      {"BICG", "ADI", "GESUM", "GEMM", "2MM", "3MM"},        // MX13
      {"2DCON", "MVT", "FDTD", "COVAR", "CORR", "SYR2K"},    // MX14
  };
  std::vector<const Workload*> mix;
  for (const char* name : kMixes[i - 1]) {
    const Workload* w = Find(name);
    FAB_CHECK(w != nullptr) << "mix references unknown workload " << name;
    mix.push_back(w);
  }
  return mix;
}

}  // namespace fabacus

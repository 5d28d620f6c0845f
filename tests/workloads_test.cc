// Functional tests for every workload: run the microblock bodies directly
// (in order, fully fanned out) and check against the reference
// implementation; check the Prepare/Reset/Reference contract the fleet's
// install-cache hits rely on; validate the Table-2 characteristics and mixes.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/workloads/tenant_mix.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

// Runs a kernel functionally: every microblock in order, each split into
// `fanout` screen slices executed sequentially (any order within a
// microblock must be valid).
void RunFunctionally(const Workload& wl, AppInstance* inst, int fanout) {
  for (int m = 0; m < wl.spec().num_microblocks(); ++m) {
    const MicroblockSpec& spec = wl.spec().microblocks[static_cast<std::size_t>(m)];
    const int screens = spec.serial ? 1 : fanout;
    for (int s = screens - 1; s >= 0; --s) {  // reverse order on purpose
      std::size_t begin = 0;
      std::size_t end = 0;
      ScreenFuncRange(*inst, m, s, screens, &begin, &end);
      if (spec.body) {
        spec.body(*inst, begin, end);
      }
    }
  }
}

class WorkloadFunctionalTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadFunctionalTest, BodiesMatchReference) {
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  ASSERT_NE(wl, nullptr);
  Rng rng(2024);
  AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
  wl->Prepare(inst, rng);
  RunFunctionally(*wl, &inst, 6);
  EXPECT_TRUE(wl->Verify(inst));
}

TEST_P(WorkloadFunctionalTest, ScreenSplitInvariantToFanout) {
  // The same kernel computed with 1, 3 and 8 screens per microblock must
  // produce identical outputs (screens are data-independent by construction).
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  for (int fanout : {1, 3, 8}) {
    Rng rng(77);
    AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
    wl->Prepare(inst, rng);
    RunFunctionally(*wl, &inst, fanout);
    EXPECT_TRUE(wl->Verify(inst)) << "fanout " << fanout;
  }
}

// Every workload the repository defines: the registry, the synthetic and
// tenant-mix kernels, and the test-local RandomWorkload.
std::vector<const Workload*> ContractWorkloads() {
  static const std::unique_ptr<Workload> extra[] = {
      MakeSynthetic(0.3), MakeBullyWriter(), MakeLatencyProbe(),
      std::make_unique<RandomWorkload>(303)};
  std::vector<const Workload*> all = WorkloadRegistry::Get().all();
  for (const auto& w : extra) {
    all.push_back(w.get());
  }
  return all;
}

// Bit-level equality of every buffer (float == would equate 0.0 and -0.0).
void ExpectSameBuffers(const AppInstance& actual, const AppInstance& expected) {
  ASSERT_EQ(actual.buffers().size(), expected.buffers().size());
  for (std::size_t b = 0; b < expected.buffers().size(); ++b) {
    const std::vector<float>& x = actual.buffers()[b];
    const std::vector<float>& y = expected.buffers()[b];
    ASSERT_EQ(x.size(), y.size()) << "buffer " << b;
    if (!x.empty()) {  // an empty vector's data() may be null, invalid for memcmp
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(float)), 0) << "buffer " << b;
    }
  }
  EXPECT_EQ(actual.int_state(), expected.int_state());
}

class WorkloadContractTest : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadContractTest, ResetRestoresPreparedState) {
  const Workload& wl = *GetParam();
  constexpr std::uint64_t kSeed = 2024;
  AppInstance fresh(0, 0, &wl.spec(), 1.0 / 256);
  Rng rng(kSeed);
  wl.Prepare(fresh, rng);

  AppInstance inst(0, 0, &wl.spec(), 1.0 / 256);
  Rng rng2(kSeed);
  wl.Prepare(inst, rng2);
  for (int round = 0; round < 2; ++round) {
    RunFunctionally(wl, &inst, 6);
    wl.Reset(inst, kSeed);
    ExpectSameBuffers(inst, fresh);
  }
}

TEST_P(WorkloadContractTest, VerifyIsMatchesOfReference) {
  const Workload& wl = *GetParam();
  Rng rng(31);
  AppInstance inst(0, 0, &wl.spec(), 1.0 / 256);
  wl.Prepare(inst, rng);
  EXPECT_EQ(wl.Verify(inst), Workload::Matches(inst, wl.Reference(inst)));
  RunFunctionally(wl, &inst, 3);
  EXPECT_TRUE(Workload::Matches(inst, wl.Reference(inst)));
  EXPECT_TRUE(wl.Verify(inst));
}

TEST_P(WorkloadContractTest, MemoizedReferenceChecksEveryRerun) {
  const Workload& wl = *GetParam();
  constexpr std::uint64_t kSeed = 99;
  Rng rng(kSeed);
  AppInstance inst(0, 0, &wl.spec(), 1.0 / 256);
  wl.Prepare(inst, rng);
  RunFunctionally(wl, &inst, 4);
  const std::vector<Workload::Expected> memo = wl.Reference(inst);
  ASSERT_FALSE(memo.empty());
  ASSERT_TRUE(Workload::Matches(inst, memo));

  wl.Reset(inst, kSeed);
  RunFunctionally(wl, &inst, 7);
  EXPECT_TRUE(Workload::Matches(inst, memo)) << "a rerun after Reset must match the memo";

  for (std::size_t e = 0; e < memo.size(); ++e) {
    ASSERT_FALSE(memo[e].values.empty());
    std::vector<Workload::Expected> flipped = memo;
    float& v = flipped[e].values[flipped[e].values.size() / 2];
    v += 1.0f + 2.0f * std::fabs(v);
    EXPECT_FALSE(Workload::Matches(inst, flipped))
        << "flipping one element of expected buffer " << memo[e].buffer << " must fail";
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadContractTest,
                         ::testing::ValuesIn(ContractWorkloads()),
                         [](const ::testing::TestParamInfo<const Workload*>& info) {
                           std::string name = info.param->name();
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

std::vector<std::string> AllWorkloadNames() {
  std::vector<std::string> names;
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    names.push_back(wl->name());
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctionalTest,
                         ::testing::ValuesIn(AllWorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(WorkloadRegistry, Table2CharacteristicsMatchPaper) {
  struct Expected {
    const char* name;
    int mblks;
    int serial;
    double input_mb;
    double ldst_pct;
    double bki;
  };
  // Table 2, verbatim.
  const Expected table[] = {
      {"ATAX", 2, 1, 640, 45.61, 68.86}, {"BICG", 2, 1, 640, 46.0, 72.3},
      {"2DCON", 1, 0, 640, 23.96, 35.59}, {"MVT", 1, 0, 640, 45.1, 72.05},
      {"ADI", 3, 1, 1920, 23.96, 35.59}, {"FDTD", 3, 1, 1920, 27.27, 38.52},
      {"GESUM", 1, 0, 640, 48.08, 72.13}, {"SYRK", 1, 0, 1280, 28.21, 5.29},
      {"3MM", 3, 1, 2560, 33.68, 2.48},  {"COVAR", 3, 1, 640, 34.33, 2.86},
      {"GEMM", 1, 0, 192, 30.77, 5.29},  {"2MM", 2, 1, 2560, 33.33, 3.76},
      {"SYR2K", 1, 0, 1280, 30.19, 1.85}, {"CORR", 4, 1, 640, 33.04, 2.79},
  };
  for (const Expected& e : table) {
    const Workload* wl = WorkloadRegistry::Get().Find(e.name);
    ASSERT_NE(wl, nullptr) << e.name;
    const KernelSpec& s = wl->spec();
    EXPECT_EQ(s.num_microblocks(), e.mblks) << e.name;
    EXPECT_EQ(s.num_serial_microblocks(), e.serial) << e.name;
    EXPECT_DOUBLE_EQ(s.model_input_mb, e.input_mb) << e.name;
    EXPECT_NEAR(s.ldst_ratio * 100.0, e.ldst_pct, 0.01) << e.name;
    EXPECT_NEAR(s.bki, e.bki, 0.01) << e.name;
  }
}

TEST(WorkloadRegistry, WorkFractionsSumToOne) {
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    double sum = 0.0;
    for (const MicroblockSpec& m : wl->spec().microblocks) {
      sum += m.work_fraction;
      EXPECT_GT(m.func_iterations, 0u) << wl->name() << "/" << m.name;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << wl->name();
  }
}

TEST(WorkloadRegistry, InstructionMixesAreDistributions) {
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    for (const MicroblockSpec& m : wl->spec().microblocks) {
      EXPECT_NEAR(m.frac_ldst + m.frac_mul + m.frac_alu, 1.0, 1e-9)
          << wl->name() << "/" << m.name;
      EXPECT_GE(m.frac_ldst, 0.0);
      EXPECT_GE(m.frac_mul, 0.0);
      EXPECT_GE(m.frac_alu, 0.0);
    }
  }
}

TEST(WorkloadRegistry, GraphWorkloadSerialStructureMatchesPaper) {
  // §5.6: bfs and nn have serial microblocks; nw and path do not.
  EXPECT_GT(WorkloadRegistry::Get().Find("bfs")->spec().num_serial_microblocks(), 0);
  EXPECT_GT(WorkloadRegistry::Get().Find("nn")->spec().num_serial_microblocks(), 0);
  EXPECT_EQ(WorkloadRegistry::Get().Find("nw")->spec().num_serial_microblocks(), 0);
  EXPECT_EQ(WorkloadRegistry::Get().Find("path")->spec().num_serial_microblocks(), 0);
}

TEST(WorkloadRegistry, MixesHaveSixDistinctApps) {
  for (int m = 1; m <= WorkloadRegistry::kNumMixes; ++m) {
    const auto mix = WorkloadRegistry::Get().Mix(m);
    EXPECT_EQ(mix.size(), 6u);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      for (std::size_t j = i + 1; j < mix.size(); ++j) {
        EXPECT_NE(mix[i], mix[j]) << "MX" << m;
      }
    }
  }
}

TEST(WorkloadRegistry, Mx1StartsWithFourDataIntensiveApps) {
  // Fig 12b describes MX1 as four data-intensive kernels followed by two
  // compute-intensive ones.
  const auto mix = WorkloadRegistry::Get().Mix(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(mix[static_cast<std::size_t>(i)]->compute_intensive());
  }
  EXPECT_TRUE(mix[4]->compute_intensive());
  EXPECT_TRUE(mix[5]->compute_intensive());
}

TEST(SyntheticWorkload, SerialRatioShapesMicroblocks) {
  auto half = MakeSynthetic(0.5);
  EXPECT_EQ(half->spec().num_microblocks(), 2);
  EXPECT_EQ(half->spec().num_serial_microblocks(), 1);
  auto none = MakeSynthetic(0.0);
  EXPECT_EQ(none->spec().num_microblocks(), 1);
  EXPECT_EQ(none->spec().num_serial_microblocks(), 0);
  auto all = MakeSynthetic(1.0);
  EXPECT_EQ(all->spec().num_microblocks(), 1);
  EXPECT_EQ(all->spec().num_serial_microblocks(), 1);
}

TEST(SyntheticWorkload, VerifiesAtEveryRatio) {
  for (double ratio : {0.0, 0.3, 0.5, 1.0}) {
    auto syn = MakeSynthetic(ratio);
    Rng rng(5);
    AppInstance inst(0, 0, &syn->spec(), 1.0 / 256);
    syn->Prepare(inst, rng);
    RunFunctionally(*syn, &inst, 4);
    EXPECT_TRUE(syn->Verify(inst)) << "ratio " << ratio;
  }
}

}  // namespace
}  // namespace fabacus

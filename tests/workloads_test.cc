// Functional tests for every workload: run the microblock bodies directly
// (in order, fully fanned out) and check against the reference
// implementation; check the Prepare/Reset/Reference contract the fleet's
// install-cache hits rely on; validate the Table-2 characteristics and mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/workloads/tenant_mix.h"
#include "src/workloads/workload.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

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
  // The same kernel computed with 1, 3, 5 and 8 screens per microblock must
  // produce bit-identical outputs: screens are data-independent by
  // construction, and every output sums its terms in one order whatever
  // range a screen covers (5 leaves row blocks with a tail).
  const Workload* wl = WorkloadRegistry::Get().Find(GetParam());
  Rng rng(77);
  AppInstance whole(0, 0, &wl->spec(), 1.0 / 256);
  wl->Prepare(whole, rng);
  RunFunctionally(*wl, &whole, 1);
  for (int fanout : {3, 5, 8}) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    Rng split_rng(77);
    AppInstance split(0, 0, &wl->spec(), 1.0 / 256);
    wl->Prepare(split, split_rng);
    RunFunctionally(*wl, &split, fanout);
    ExpectSameBuffers(split, whole);
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

// |a - b| <= rel_tol * max(|a|, |b|, 1) written directly, with a branch on
// the max: the oracle for NearlyEqual wherever both inputs are finite.
bool ScalarNearlyEqual(float a, float b, float rel_tol) {
  const float diff = std::fabs(a - b);
  const float scale = std::max({std::fabs(a), std::fabs(b), 1.0f});
  return !(diff > rel_tol * scale);
}

TEST(NearlyEqual, NonFiniteOnEitherSideFailsMatches) {
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const Workload* wl = WorkloadRegistry::Get().Find("2DCON");
  Rng rng(11);
  AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
  wl->Prepare(inst, rng);
  RunFunctionally(*wl, &inst, 4);
  const std::vector<Workload::Expected> memo = wl->Reference(inst);
  ASSERT_EQ(memo.size(), 1u);
  ASSERT_TRUE(Workload::Matches(inst, memo));
  const std::size_t out = static_cast<std::size_t>(memo[0].buffer);
  const std::size_t n = memo[0].values.size();
  // First element, one inside a later block, and the last.
  for (std::size_t at : {std::size_t{0}, n / 2 + 3, n - 1}) {
    for (float bad : {kNan, kInf, -kInf}) {
      SCOPED_TRACE("element " + std::to_string(at) + " = " + std::to_string(bad));
      AppInstance output = inst;
      output.buffer(out)[at] = bad;
      EXPECT_FALSE(Workload::Matches(output, memo)) << "non-finite output";
      std::vector<Workload::Expected> expected = memo;
      expected[0].values[at] = bad;
      EXPECT_FALSE(Workload::Matches(inst, expected)) << "non-finite expected value";
      EXPECT_FALSE(Workload::Matches(output, expected)) << "the same value on both sides";
    }
  }
  for (float bad : {kNan, kInf, -kInf}) {
    EXPECT_FALSE(NearlyEqual({bad}, {1.0f}));
    EXPECT_FALSE(NearlyEqual({1.0f}, {bad}));
    EXPECT_FALSE(NearlyEqual({bad}, {bad}));
  }
}

TEST(NearlyEqual, AgreesWithScalarPredicateOnFiniteGrid) {
  const float kMax = std::numeric_limits<float>::max();
  const float kMinNormal = std::numeric_limits<float>::min();
  const float kSubnormal = std::numeric_limits<float>::denorm_min();
  std::vector<float> bases = {0.0f,       -0.0f,           1.0f,        -1.0f,
                              kSubnormal, -kSubnormal,     kMinNormal,  1e-39f,
                              1e-30f,     0.5f,            2.0f,        1e30f,
                              -1e30f,     kMax,            -kMax,       kMax / 2};
  for (float one : {1.0f, -1.0f}) {  // a few ulps either side of +-1
    float below = one;
    float above = one;
    for (int u = 0; u < 3; ++u) {
      below = std::nextafter(below, 0.0f);
      above = std::nextafter(above, 2.0f * one);
      bases.push_back(below);
      bases.push_back(above);
    }
  }
  Rng rng(20181);
  for (int i = 0; i < 64; ++i) {
    bases.push_back(rng.NextFloat(-2.0f, 2.0f));
    bases.push_back(rng.NextFloat(-1.0f, 1.0f) * 1e20f);
  }

  int compared = 0;
  int at_tolerance = 0;
  for (float rel_tol : {1e-4f, 5e-4f}) {
    for (float a : bases) {
      // b steps through a few ulps around a +- rel_tol * max(|a|, 1), in both
      // directions, so some pairs differ by exactly the tolerance.
      const float scale = std::max(std::fabs(a), 1.0f);
      for (float sign : {1.0f, -1.0f}) {
        for (float mult : {0.0f, 0.5f, 1.0f, 1.5f, 2.0f}) {
          float b = a + sign * mult * rel_tol * scale;
          for (int u = 0; u < 3; ++u) {
            b = std::nextafter(b, sign * std::numeric_limits<float>::infinity());
          }
          for (int step = 0; step < 7; ++step) {
            if (std::isfinite(b) && std::isfinite(a - b)) {
              const float diff = std::fabs(a - b);
              const float tol = rel_tol * std::max({std::fabs(a), std::fabs(b), 1.0f});
              at_tolerance += diff == tol;
              for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
                EXPECT_EQ(NearlyEqual({x}, {y}, rel_tol), ScalarNearlyEqual(x, y, rel_tol))
                    << x << " vs " << y << " at rel_tol " << rel_tol;
                ++compared;
              }
            }
            b = std::nextafter(b, -sign * std::numeric_limits<float>::infinity());
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 5000);
  EXPECT_GT(at_tolerance, 0) << "the grid must reach differences exactly at the tolerance";

  // Whole vectors across block boundaries: one pair out of tolerance
  // anywhere fails the vector.
  std::vector<float> x(2500);
  for (float& v : x) {
    v = rng.NextFloat(-2.0f, 2.0f);
  }
  EXPECT_TRUE(NearlyEqual(x, x));
  for (std::size_t at : {std::size_t{0}, std::size_t{1023}, std::size_t{1024}, x.size() - 1}) {
    std::vector<float> y = x;
    y[at] += 1e-2f;
    EXPECT_FALSE(NearlyEqual(x, y)) << "element " << at;
    EXPECT_FALSE(NearlyEqual(y, x)) << "element " << at;
  }
  EXPECT_FALSE(NearlyEqual(x, std::vector<float>(x.begin(), x.end() - 1)));
}

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

// Multi-tenant QoS property tests (docs/QOS.md).
//
// The tenant-isolation contract, over randomized multi-tenant configs:
//  * a tenant's flash usage never exceeds its quota by a full allocation
//    unit or more, and denials are all-or-nothing (no partial installs);
//  * under weighted-fair arbitration the per-tenant weighted throughput
//    rates converge (Jain's index near 1, and strictly better than the
//    paper-default FIFO arbitration on the same mix);
//  * a tenant that never submits accrues nothing: no report row, no lazily
//    materialized stats node, no "tenant/<id>/" metrics (the PR 8 flat-RSS
//    guarantee extends to per-tenant sketches);
//  * tenant-QoS reports are byte-identical across a snapshot/resume cut
//    between contended runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/tenant.h"
#include "src/sim/rng.h"
#include "src/workloads/tenant_mix.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

const TenantQosReport* FindTenant(const RunReport& r, std::uint32_t id) {
  for (const TenantQosReport& t : r.tenants) {
    if (t.id == id) {
      return &t;
    }
  }
  return nullptr;
}

FlashAbacusConfig QosTestConfig(const TenantSchedConfig& tenants) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.model_scale = kBenchScale / 4;  // small: tests, not benches
  cfg.tenant_sched = tenants;
  return cfg;
}

// --- Quota ------------------------------------------------------------------

// Unit-level randomized property: whatever sequence of charges a tenant
// issues, usage stays below limit + one allocation unit, the limit being the
// configured quota rounded up to the unit. A grant charges exactly its
// bytes; a denial leaves usage untouched (all-or-nothing).
TEST(TenantQuota, RandomizedChargesNeverExceedQuotaByAUnit) {
  constexpr std::uint64_t kUnit = 64 * 1024;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int n_tenants = 2 + static_cast<int>(rng.Next() % 4);
    TenantSchedConfig cfg;
    cfg.policy = TenantSchedPolicy::kWeightedFair;
    std::vector<std::uint64_t> quotas;
    for (int t = 0; t < n_tenants; ++t) {
      TenantSpec spec;
      spec.name = std::string("t").append(std::to_string(t));
      // Deliberately unit-misaligned quotas; 0 = unlimited for tenant 0.
      spec.quota_bytes = t == 0 ? 0 : (rng.Next() % 16) * kUnit + rng.Next() % kUnit;
      quotas.push_back(spec.quota_bytes);
      cfg.tenants.push_back(spec);
    }
    TenantManager tm(cfg);
    for (int step = 0; step < 200; ++step) {
      const TenantId t = static_cast<TenantId>(rng.Next() % n_tenants);
      const std::uint64_t bytes = (1 + rng.Next() % 8) * kUnit;
      const std::uint64_t before = tm.quota_used(t);
      if (tm.TryChargeQuota(t, bytes, kUnit)) {
        EXPECT_EQ(tm.quota_used(t), before + bytes);
      } else {
        EXPECT_EQ(tm.quota_used(t), before) << "denial must not charge";
      }
      for (int v = 1; v < n_tenants; ++v) {
        const std::uint64_t limit =
            (quotas[static_cast<std::size_t>(v)] + kUnit - 1) / kUnit * kUnit;
        EXPECT_LE(tm.quota_used(static_cast<TenantId>(v)), limit)
            << "seed " << seed << " step " << step << " tenant " << v;
      }
    }
  }
}

// Device-level: a capped tenant's installs are denied once the quota is
// exhausted, the denial shows up in its report row, and the unlimited tenant
// is unaffected. Randomized over quota sizes.
TEST(TenantQuota, EndToEndDenialsAreAllOrNothingAndReported) {
  auto wl = MakeLatencyProbe(1.0);
  std::vector<const Workload*> apps = {wl.get(), wl.get()};
  const std::vector<TenantId> tenants = {0, 1};
  const std::uint64_t group = FlashAbacusConfig::Paper().nand.GroupBytes();
  // Quotas from "nothing fits" up; an instance needs one group per section
  // (in + out) at this scale, so units 1..3 admit 0..1 of 3 instances.
  for (std::uint64_t units = 1; units <= 4; ++units) {
    const std::uint64_t quota = units * group - group / 2;  // unit-misaligned
    const FlashAbacusConfig cfg = QosTestConfig(QuotaTenants(quota));
    const BenchRun run =
        RunFlashAbacusSystemTenants(apps, tenants, 3, SchedulerKind::kIntraInOrder, cfg);
    EXPECT_TRUE(run.verified) << "quota " << quota;
    const TenantQosReport* unlimited = FindTenant(run.result, 0);
    ASSERT_NE(unlimited, nullptr);
    EXPECT_EQ(unlimited->kernels_completed, 3u);
    EXPECT_EQ(unlimited->quota_denials, 0u);
    // Effective limit = quota rounded up to the allocation unit: usage may
    // pass the configured bytes by strictly less than one unit, never more.
    const std::uint64_t limit = (quota + group - 1) / group * group;
    const TenantQosReport* capped = FindTenant(run.result, 1);
    ASSERT_NE(capped, nullptr) << "a denial alone must surface the tenant row";
    EXPECT_LE(capped->quota_used_bytes, limit) << "quota " << quota;
    // All-or-nothing: usage is a whole number of per-instance footprints
    // (2 groups each), never a partial install's single section.
    EXPECT_EQ(capped->quota_used_bytes % (2 * group), 0u) << "quota " << quota;
    EXPECT_EQ(capped->quota_denials + capped->kernels_submitted, 3u) << "quota " << quota;
    EXPECT_GT(capped->quota_denials, 0u) << "quota " << quota;
  }
}

// --- Fair share -------------------------------------------------------------

// Weighted-fair shares converge: Jain's index over the weighted rates is
// near 1 and strictly better than paper-default FIFO on the same mix.
TEST(TenantFairShare, WeightedRatesConvergeUnderWeightedFair) {
  auto wl = MakeBullyWriter(4.0);
  std::vector<const Workload*> apps = {wl.get(), wl.get(), wl.get()};
  const std::vector<TenantId> tenants = {0, 1, 2};
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  const BenchRun paper = RunFlashAbacusSystemTenants(
      apps, tenants, 3, SchedulerKind::kIntraOutOfOrder,
      QosTestConfig(FairShareTenants(TenantSchedPolicy::kPaper, weights)));
  const BenchRun wf = RunFlashAbacusSystemTenants(
      apps, tenants, 3, SchedulerKind::kIntraOutOfOrder,
      QosTestConfig(FairShareTenants(TenantSchedPolicy::kWeightedFair, weights)));
  EXPECT_TRUE(paper.verified);
  EXPECT_TRUE(wf.verified);
  EXPECT_EQ(wf.result.fairness.active_tenants, 3u);
  EXPECT_GE(wf.result.fairness.jain_throughput, 0.80);
  EXPECT_GT(wf.result.fairness.jain_throughput,
            paper.result.fairness.jain_throughput + 0.05)
      << "weighted-fair must beat FIFO on share convergence";
}

// --- Zero-offered-load tenant -----------------------------------------------

TEST(TenantIdle, ZeroLoadTenantAccruesNothing) {
  // Three tenants configured, only 0 and 2 submit.
  TenantSchedConfig sched = FairShareTenants(TenantSchedPolicy::kWeightedFair,
                                             {1.0, 1.0, 1.0});
  auto wl = MakeLatencyProbe(1.0);
  std::vector<const Workload*> apps = {wl.get(), wl.get()};
  const std::vector<TenantId> tenants = {0, 2};
  Simulator sim;
  const FlashAbacusConfig cfg = QosTestConfig(sched);
  FlashAbacus dev(&sim, cfg);
  Rng rng(42);
  std::vector<std::unique_ptr<AppInstance>> insts;
  std::vector<AppInstance*> raw;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto inst = std::make_unique<AppInstance>(static_cast<int>(a), 0, &apps[a]->spec(),
                                              cfg.model_scale);
    apps[a]->Prepare(*inst, rng);
    inst->tenant = tenants[a];
    raw.push_back(inst.get());
    insts.push_back(std::move(inst));
  }
  for (AppInstance* inst : raw) {
    ASSERT_TRUE(dev.InstallData(inst, [](Tick) {}));
  }
  sim.Run();
  RunReport report;
  bool done = false;
  dev.Run(raw, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
    report = std::move(r);
    done = true;
  });
  sim.Run();
  ASSERT_TRUE(done);
  // No row, no stats node, no metrics for the idle tenant 1.
  EXPECT_EQ(FindTenant(report, 1), nullptr);
  EXPECT_FALSE(dev.tenants().HasState(1));
  EXPECT_EQ(dev.tenants().allocated_stats_count(), 2u);
  EXPECT_FALSE(dev.metrics().Has("tenant/1/kernels_completed"));
  EXPECT_TRUE(dev.metrics().Has("tenant/0/kernels_completed"));
  EXPECT_TRUE(dev.metrics().Has("tenant/2/kernels_completed"));
  const TenantQosReport* active = FindTenant(report, 2);
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->latency_ms.count, 1u);
}

// The lazy-materialization pin: configuring many tenants allocates no
// per-tenant state (and in particular no latency sketches) until a tenant
// first acts. Guards the PR 8 flat-RSS guarantee.
TEST(TenantIdle, ConfiguringTenantsAllocatesNoStats) {
  TenantSchedConfig cfg;
  cfg.policy = TenantSchedPolicy::kWeightedFair;
  for (int t = 0; t < 64; ++t) {
    TenantSpec spec;
    spec.name = std::string("t").append(std::to_string(t));
    spec.quota_bytes = 1 << 20;
    cfg.tenants.push_back(spec);
  }
  MetricsRegistry reg;
  TenantManager tm(cfg);
  tm.AttachMetrics(&reg);
  EXPECT_EQ(tm.allocated_stats_count(), 0u);
  EXPECT_EQ(reg.size(), 0u);
  tm.OnSubmit(3, 100);
  EXPECT_EQ(tm.allocated_stats_count(), 1u);
  EXPECT_TRUE(reg.Has("tenant/3/kernels_completed"));
  EXPECT_FALSE(reg.Has("tenant/0/kernels_completed"));
  // Queries against idle tenants must not materialize state either.
  EXPECT_EQ(tm.quota_used(7), 0u);
  EXPECT_EQ(tm.virtual_time(7), 0.0);
  EXPECT_EQ(tm.allocated_stats_count(), 1u);
  EXPECT_EQ(tm.BuildReport().size(), 1u);
}

// --- Snapshot/resume --------------------------------------------------------

// A scripted two-tenant session: installs for both tenants, then two
// contended weighted-fair runs. The segmented variant snapshots between the
// runs — with per-tenant virtual time and accounting mid-flight — and must
// reproduce the unbroken reports byte-identically.
struct TenantSession {
  FlashAbacusConfig cfg;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<FlashAbacus> dev;
  std::vector<std::unique_ptr<AppInstance>> insts;
  std::vector<std::string> reports;

  void Fresh() {
    dev.reset();
    sim = std::make_unique<Simulator>();
    dev = std::make_unique<FlashAbacus>(sim.get(), cfg);
  }

  void Prepare(const std::vector<const Workload*>& apps,
               const std::vector<TenantId>& tenants) {
    Rng rng(42);
    for (std::size_t a = 0; a < apps.size(); ++a) {
      auto inst = std::make_unique<AppInstance>(static_cast<int>(a), 0, &apps[a]->spec(),
                                                cfg.model_scale);
      apps[a]->Prepare(*inst, rng);
      inst->tenant = tenants[a];
      insts.push_back(std::move(inst));
    }
  }

  void InstallAll() {
    for (auto& inst : insts) {
      ASSERT_TRUE(dev->InstallData(inst.get(), [](Tick) {}));
      sim->Run();
    }
  }

  void RunAll() {
    std::vector<AppInstance*> raw;
    for (auto& inst : insts) {
      raw.push_back(inst.get());
    }
    bool done = false;
    dev->Run(raw, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
      reports.push_back(r.ToJson());
      done = true;
    });
    sim->Run();
    ASSERT_TRUE(done);
  }
};

TEST(TenantSnapshot, ResumeBetweenContendedRunsMatchesUnbroken) {
  auto bully = MakeBullyWriter(2.0);
  auto probe = MakeLatencyProbe(2.0);
  const std::vector<const Workload*> apps = {bully.get(), probe.get()};
  const std::vector<TenantId> tenants = {0, 1};
  const FlashAbacusConfig cfg =
      QosTestConfig(NoisyNeighborTenants(TenantSchedPolicy::kWeightedFair));

  TenantSession unbroken;
  unbroken.cfg = cfg;
  unbroken.Fresh();
  unbroken.Prepare(apps, tenants);
  unbroken.InstallAll();
  unbroken.RunAll();
  unbroken.RunAll();
  ASSERT_EQ(unbroken.reports.size(), 2u);

  TenantSession segmented;
  segmented.cfg = cfg;
  segmented.Fresh();
  segmented.Prepare(apps, tenants);
  segmented.InstallAll();
  segmented.RunAll();
  const std::string path = ::testing::TempDir() + "fabsnap_tenant_qos.snap";
  std::string err;
  ASSERT_TRUE(segmented.dev->Snapshot(path, &err)) << err;
  segmented.Fresh();
  ASSERT_TRUE(segmented.dev->Resume(path, &err)) << err;
  std::remove(path.c_str());
  segmented.RunAll();
  ASSERT_EQ(segmented.reports.size(), 2u);

  // The second run starts with tenant virtual times and QoS accounting
  // carried over from the first; both must match the unbroken session.
  EXPECT_EQ(unbroken.reports[0], segmented.reports[0]);
  EXPECT_EQ(unbroken.reports[1], segmented.reports[1]);
  EXPECT_NE(segmented.reports[1].find("\"tenants\""), std::string::npos);
}

}  // namespace
}  // namespace fabacus

// Golden-report regression suite: one canonical workload set (ATAX + GEMM,
// one instance each, seed 42, kBenchScale/4) runs on each of the five paper
// systems; the full RunReport JSON is compared byte-for-byte against the
// checked-in goldens in tests/golden/. Any behavioral drift — a timing
// constant, an energy coefficient, a scheduler decision, a metric name —
// shows up as a failing diff listing exactly which fields moved. Four
// real-device fleets pin the FleetReport JSON the same way, including the
// install-cache hit path (slot reset + memoized reference, docs/FLEET.md).
// WorkloadOutputs.json pins every registry workload's functional outputs bit
// for bit, and SnapshotSections.json pins the byte layout of every snapshot
// section (docs/SNAPSHOT.md).
//
// Refreshing after an intentional change:
//   scripts/update_goldens.sh        (or FABACUS_UPDATE_GOLDENS=1, see below)
// then review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/storengine.h"
#include "src/fleet/fleet.h"
#include "src/sim/json.h"
#include "src/sim/snapshot.h"
#include "src/workloads/tenant_mix.h"
#include "tests/test_util.h"

#ifndef FABACUS_GOLDEN_DIR
#error "build must define FABACUS_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace fabacus {
namespace {

constexpr int kMaxDiffLines = 40;

BenchRun RunCanonical(const std::string& system) {
  BenchOptions opt;
  opt.model_scale = kBenchScale / 4;
  opt.seed = 42;
  const WorkloadRegistry& reg = WorkloadRegistry::Get();
  const std::vector<const Workload*> apps = {reg.Find("ATAX"), reg.Find("GEMM")};
  if (system == "SIMD") {
    return RunSimdSystem(apps, 1, opt);
  }
  if (system == "TenantQoS") {
    // Two-tenant noisy neighbor under weighted-fair arbitration: pins the
    // schema-v3 "tenants" rows and "fairness" object (docs/QOS.md).
    auto bully = MakeBullyWriter(2.0);
    auto probe = MakeLatencyProbe(2.0);
    const std::vector<const Workload*> tenant_apps = {bully.get(), probe.get()};
    FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
    cfg.model_scale = opt.model_scale;
    cfg.tenant_sched = NoisyNeighborTenants(TenantSchedPolicy::kWeightedFair);
    return RunFlashAbacusSystemTenants(tenant_apps, {0, 1}, 2,
                                       SchedulerKind::kInterDynamic, cfg, opt);
  }
  for (SchedulerKind kind : {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                             SchedulerKind::kIntraInOrder, SchedulerKind::kIntraOutOfOrder}) {
    if (system == SchedulerKindName(kind)) {
      return RunFlashAbacusSystem(apps, 1, kind, opt);
    }
  }
  ADD_FAILURE() << "unknown system " << system;
  return BenchRun();
}

std::string GoldenPath(const std::string& system) {
  return std::string(FABACUS_GOLDEN_DIR) + "/" + system + ".json";
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path);
  if (!f) {
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

bool UpdateMode() {
  const char* v = std::getenv("FABACUS_UPDATE_GOLDENS");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

// Compares `actual` against the checked-in golden `name`.json (or rewrites
// the golden in update mode), failing with a field-level diff on mismatch.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);

  if (UpdateMode()) {
    std::ofstream f(path);
    ASSERT_TRUE(f.good()) << "cannot write " << path;
    f << actual << "\n";
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::string golden;
  ASSERT_TRUE(ReadFile(path, &golden))
      << "missing golden " << path
      << " — generate it with scripts/update_goldens.sh and commit the result";
  // Goldens are stored with one trailing newline; reports are emitted bare.
  if (!golden.empty() && golden.back() == '\n') {
    golden.pop_back();
  }
  if (golden == actual) {
    return;
  }

  // Byte mismatch: produce a readable field-level diff before failing,
  // via the shared versioned-document diff (src/sim/json.h).
  JsonValue gv, av;
  std::string gerr, aerr;
  ASSERT_TRUE(ParseJson(golden, &gv, &gerr)) << "golden " << path << " is not JSON: " << gerr;
  ASSERT_TRUE(ParseJson(actual, &av, &aerr)) << "report is not JSON: " << aerr;
  std::vector<std::string> lines;
  const int diffs = JsonFieldDiff(gv, av, "", &lines, kMaxDiffLines);
  std::string msg = name + " report drifted from " + path + " (" + std::to_string(diffs) +
                    " field(s) changed):\n";
  for (const std::string& line : lines) {
    msg += "  " + line + "\n";
  }
  if (diffs > static_cast<int>(lines.size())) {
    msg += "  ... " + std::to_string(diffs - static_cast<int>(lines.size())) + " more\n";
  }
  msg += "If intentional, refresh with scripts/update_goldens.sh and review the diff.";
  ADD_FAILURE() << msg;
}

class GoldenReport : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenReport, MatchesCheckedInReport) {
  const std::string system = GetParam();
  const BenchRun run = RunCanonical(system);
  ASSERT_TRUE(run.verified) << system << " failed functional verification";
  CheckGolden(system, run.result.ToJson());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, GoldenReport,
                         ::testing::Values("SIMD", "InterSt", "InterDy", "IntraIo", "IntraO3",
                                           "TenantQoS"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Real-device fleets served mostly from the shards' install caches:
//  * FleetDefault       — the default ATAX/BICG/MVT/GESUM mix;
//  * FleetInPlace       — kernels that update inputs in place (GEMM, COVAR,
//    FDTD restore them from pristine copies; ADI re-prepares);
//  * FleetSnapshotCrash — a crash with checkpoint recovery, so slots rebuilt
//    from the checkpoint's install-cache directory serve later requests;
//  * FleetHealthAware   — health-aware placement under a brownout and a
//    crash, with priorities, hedges, a retry and priority shedding: pins
//    health views, breaker probes, hedge placement, evictions and failover
//    re-arrivals, none of which the round-robin fleets reach.
FleetConfig CanonicalFleet(const std::string& name) {
  FleetConfig cfg;
  cfg.num_devices = 2;
  cfg.max_route_attempts = 1;
  cfg.queue_depth = 64;
  cfg.traffic.seed = 42;
  cfg.traffic.num_clients = 4;
  cfg.traffic.arrival_rate_per_s = 400.0;
  cfg.traffic.total_requests = 32;
  if (name == "FleetInPlace") {
    cfg.traffic.mix = {{"GEMM", 1.0}, {"COVAR", 1.0}, {"FDTD", 1.0}, {"ADI", 1.0}};
  } else if (name == "FleetSnapshotCrash") {
    // Round-robin keeps routing half the traffic to the recovered shard; the
    // second route attempt carries arrivals past it while it is down.
    cfg.traffic.arrival_rate_per_s = 600.0;
    cfg.traffic.total_requests = 64;
    cfg.max_route_attempts = 2;
    cfg.max_request_retries = 2;
    cfg.faults.recovery = FleetFaultConfig::Recovery::kSnapshot;
    cfg.faults.checkpoint_every_batches = 2;
    FleetFaultEvent crash;
    crash.kind = FleetFaultEvent::Kind::kCrash;
    crash.shard = 1;
    crash.at = 60 * kMs;  // after shard 1's first checkpoint (two batches)
    crash.duration = 20 * kMs;
    cfg.faults.plan.push_back(crash);
  } else if (name == "FleetHealthAware") {
    cfg.num_devices = 3;
    cfg.policy = PlacementPolicy::kHealthAware;
    cfg.max_route_attempts = 3;
    cfg.queue_depth = 12;
    cfg.max_request_retries = 1;
    cfg.hedge_requests = true;
    cfg.hedge_delay = 2 * kMs;
    cfg.priority_shedding = true;
    cfg.traffic.num_clients = 6;
    cfg.traffic.arrival_rate_per_s = 200.0;
    cfg.traffic.total_requests = 96;
    cfg.traffic.latency_share = 0.3;
    cfg.traffic.batch_share = 0.3;
    FleetFaultEvent stall;
    stall.kind = FleetFaultEvent::Kind::kStall;
    stall.shard = 0;
    stall.at = 10 * kMs;
    stall.duration = 30 * kMs;
    stall.stall_factor = 4.0;
    FleetFaultEvent crash;
    crash.kind = FleetFaultEvent::Kind::kCrash;
    crash.shard = 1;
    crash.at = 40 * kMs;
    crash.duration = 15 * kMs;
    cfg.faults.plan = {stall, crash};
  }
  return cfg;
}

class GoldenFleetReport : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenFleetReport, MatchesCheckedInReport) {
  const std::string name = GetParam();
  const FleetReport rep = RunFleet(CanonicalFleet(name));
  ASSERT_TRUE(rep.verified) << name << " failed functional verification";
  EXPECT_TRUE(rep.Audit().empty()) << ::testing::PrintToString(rep.Audit());
  std::uint64_t hits = 0;
  for (const FleetDeviceStats& d : rep.devices) {
    hits += d.install_hits;
  }
  ASSERT_GT(hits, 0u) << name << " must exercise the install-cache hit path";
  CheckGolden(name, rep.ToJson());
}

INSTANTIATE_TEST_SUITE_P(Fleets, GoldenFleetReport,
                         ::testing::Values("FleetDefault", "FleetInPlace", "FleetSnapshotCrash",
                                           "FleetHealthAware"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// FNV-1a over the bytes of `v`, as 16 hex digits.
template <typename T>
std::string Fnv1aHex(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// Every registry workload, run functionally at three seeds and three screen
// fanouts: a hash of every buffer after the microblocks ran and of every
// Reference() vector, one line per run. A rewrite of the kernel math that
// keeps each output's summation order leaves the file unchanged
// (docs/PERFORMANCE.md, "Kernel math").
TEST(GoldenWorkloadOutputs, MatchesCheckedInHashes) {
  std::string doc = "{";
  const char* separator = "\n";
  for (const Workload* wl : WorkloadRegistry::Get().all()) {
    for (std::uint64_t seed : {1, 7, 20181}) {
      for (int fanout : {1, 5, 8}) {
        AppInstance inst(0, 0, &wl->spec(), 1.0 / 256);
        Rng rng(seed);
        wl->Prepare(inst, rng);
        RunFunctionally(*wl, &inst, fanout);
        const std::vector<Workload::Expected> expected = wl->Reference(inst);
        EXPECT_TRUE(Workload::Matches(inst, expected))
            << wl->name() << " seed " << seed << " fanout " << fanout;

        doc += separator;
        separator = ",\n";
        doc += "\"" + wl->name() + " seed=" + std::to_string(seed) +
               " fanout=" + std::to_string(fanout) + "\": {\"buffers\": [";
        for (std::size_t b = 0; b < inst.buffers().size(); ++b) {
          doc += (b > 0 ? ", \"" : "\"") + Fnv1aHex(inst.buffers()[b]) + "\"";
        }
        doc += "], \"int_state\": \"" + Fnv1aHex(inst.int_state()) + "\", \"reference\": {";
        for (std::size_t e = 0; e < expected.size(); ++e) {
          doc += (e > 0 ? ", \"" : "\"") + std::to_string(expected[e].buffer) + "\": \"" +
                 Fnv1aHex(expected[e].values) + "\"";
        }
        doc += "}}";
      }
    }
  }
  doc += "\n}";
  CheckGolden("WorkloadOutputs", doc);
}

// --- Snapshot layout --------------------------------------------------------

// One line per section of the container `bytes`: name, schema version,
// payload size and FNV-1a. A fleet shard's nested device container lists its
// own sections beneath it.
void AppendSectionLayout(const std::vector<std::uint8_t>& bytes, const std::string& indent,
                         std::string* doc) {
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(bytes, &snap, &err)) << err;
  *doc += "\"bytes\": " + std::to_string(bytes.size()) + ", \"fnv1a\": \"" + Fnv1aHex(bytes) +
          "\", \"sections\": [";
  const char* separator = "\n";
  for (const SnapshotFile::Section& s : snap.sections()) {
    *doc += separator + indent + "  {\"name\": \"" + s.name +
            "\", \"version\": " + std::to_string(s.version) + ", ";
    separator = ",\n";
    if (s.payload.size() >= 8 && std::memcmp(s.payload.data(), SnapshotFile::kMagic, 8) == 0) {
      AppendSectionLayout(s.payload, indent + "  ", doc);
    } else {
      *doc += "\"bytes\": " + std::to_string(s.payload.size()) + ", \"fnv1a\": \"" +
              Fnv1aHex(s.payload) + "\"";
    }
    *doc += "}";
  }
  *doc += "\n" + indent + "]";
}

// A faulty TinyNand Small() device after two ATAX installs, a journal dump
// and a run; with `tenants`, the two instances belong to two weighted-fair
// tenants, one of them under a flash quota; with `crash`, power fails
// mid-run and the device recovers from flash.
std::vector<std::uint8_t> DeviceSnapshotBytes(bool tenants, bool crash) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  cfg.nand = TinyNand();
  cfg.nand.fault.seed = 11;
  cfg.nand.fault.read_error_base = 0.05;
  cfg.nand.fault.program_failure_rate = 0.002;
  cfg.nand.fault.die_stall_rate = 0.005;
  if (tenants) {
    cfg.tenant_sched.policy = TenantSchedPolicy::kWeightedFair;
    TenantSpec bulk;
    bulk.name = "bulk";
    TenantSpec capped;
    capped.name = "capped";
    capped.weight = 2.0;
    capped.quota_bytes = 8ULL << 20;
    cfg.tenant_sched.tenants = {bulk, capped};
  }
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  Rng rng(42);
  std::vector<std::unique_ptr<AppInstance>> insts;
  std::vector<AppInstance*> raw;
  for (int i = 0; i < 2; ++i) {
    insts.push_back(std::make_unique<AppInstance>(0, i, &wl->spec(), cfg.model_scale));
    wl->Prepare(*insts.back(), rng);
    insts.back()->tenant = tenants ? static_cast<TenantId>(i) : 0;
    raw.push_back(insts.back().get());
  }
  dev.InstallData(raw[0], [](Tick) {});
  sim.Run();
  dev.storengine().RunJournalDump([](Tick) {});
  sim.Run();
  dev.InstallData(raw[1], [](Tick) {});
  sim.Run();
  dev.Run(raw, SchedulerKind::kIntraOutOfOrder, [](RunReport) {});
  if (crash) {
    dev.CrashAt(sim.Now() + 500 * kUs);
  }
  sim.Run();
  if (crash) {
    dev.RecoverFromFlash();
  }
  return dev.BuildSnapshot().Serialize();
}

std::vector<std::uint8_t> FleetSnapshotBytes(PlacementPolicy policy) {
  FleetConfig cfg;
  cfg.num_devices = 2;
  cfg.policy = policy;
  cfg.traffic.seed = 5;
  cfg.traffic.total_requests = 12;
  FleetSim fleet(cfg);
  fleet.Run();
  return fleet.BuildSnapshot().Serialize();
}

// Every section's name, version, size and FNV-1a in five snapshots: a device
// mid-life, the same with tenants, a device recovered from a crash, and two
// fleets. A section whose bytes change without a StateVersion() bump fails
// here (docs/SNAPSHOT.md, "Versioning and compatibility policy").
TEST(GoldenSnapshotSections, MatchesCheckedInLayout) {
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases = {
      {"device", DeviceSnapshotBytes(false, false)},
      {"device_tenants", DeviceSnapshotBytes(true, false)},
      {"device_crash_recovered", DeviceSnapshotBytes(false, true)},
      {"fleet_round_robin", FleetSnapshotBytes(PlacementPolicy::kRoundRobin)},
      {"fleet_health_aware", FleetSnapshotBytes(PlacementPolicy::kHealthAware)},
  };
  std::string doc = "{";
  const char* separator = "\n";
  for (const auto& [name, bytes] : cases) {
    doc += separator;
    separator = ",\n";
    doc += "\"" + name + "\": {";
    AppendSectionLayout(bytes, "", &doc);
    doc += "}";
  }
  doc += "\n}";
  CheckGolden("SnapshotSections", doc);
}

}  // namespace
}  // namespace fabacus

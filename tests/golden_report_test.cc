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
// section (docs/SNAPSHOT.md). DeviceRunPaths.json pins RunReports for the
// scheduler paths the canonical set misses (weighted-fair yields, io-free
// kernels, a quota denial), and DeviceMaintenance.json Storengine's GC,
// scrub and journal under each fault kind, with Flashvisor's foreground
// reclaim.
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
#include <functional>
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

// Device run paths the canonical set never takes, one RunReport each:
//  * InterSt and InterDy under weighted-fair QoS with a latency-class probe
//    arriving behind six throughput kernels, so a worker yields to it at a
//    microblock boundary — from its own queue (InterSt: app 6 shares worker
//    0 with app 0) and from the shared one (InterDy);
//  * an io-free synthetic kernel (no data sections: no head, tail or store
//    request) under all four schedulers;
//  * a capped tenant whose second instance the flash quota denies.
TEST(GoldenDeviceRunPaths, MatchesCheckedInReports) {
  BenchOptions opt;
  opt.model_scale = kBenchScale / 4;
  opt.seed = 42;
  std::vector<std::pair<std::string, BenchRun>> runs;

  auto bully = MakeBullyWriter(2.0);
  auto probe = MakeLatencyProbe(2.0);
  std::vector<const Workload*> behind(6, bully.get());
  behind.push_back(probe.get());
  FlashAbacusConfig qos = FlashAbacusConfig::Paper();
  qos.model_scale = opt.model_scale;
  qos.tenant_sched = NoisyNeighborTenants(TenantSchedPolicy::kWeightedFair);
  for (SchedulerKind kind : {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic}) {
    runs.emplace_back(std::string("latency_behind_throughput_") + SchedulerKindName(kind),
                      RunFlashAbacusSystemTenants(behind, {0, 0, 0, 0, 0, 0, 1}, 1, kind, qos,
                                                  opt));
  }

  auto io_free = MakeSynthetic(0.3, 64.0, /*io_free=*/true);
  for (SchedulerKind kind : {SchedulerKind::kInterStatic, SchedulerKind::kInterDynamic,
                             SchedulerKind::kIntraInOrder, SchedulerKind::kIntraOutOfOrder}) {
    runs.emplace_back(std::string("io_free_") + SchedulerKindName(kind),
                      RunFlashAbacusSystem({io_free.get()}, 2, kind, opt));
  }

  const WorkloadRegistry& reg = WorkloadRegistry::Get();
  FlashAbacusConfig quota = FlashAbacusConfig::Paper();
  quota.model_scale = opt.model_scale;
  quota.tenant_sched = QuotaTenants(16ULL << 20);
  runs.emplace_back("quota_denied_IntraO3",
                    RunFlashAbacusSystemTenants({reg.Find("ATAX"), reg.Find("ATAX")}, {0, 1}, 2,
                                                SchedulerKind::kIntraOutOfOrder, quota, opt));

  std::string doc = "{";
  const char* separator = "\n";
  for (const auto& [name, run] : runs) {
    EXPECT_TRUE(run.verified) << name << " failed functional verification";
    doc += separator;
    separator = ",\n";
    doc += "\"" + name + "\": " + run.result.ToJson();
  }
  doc += "\n}";
  const std::vector<TenantQosReport>& rows = runs.back().second.result.tenants;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].quota_denials, 1u) << "the capped tenant's second instance is denied";
  CheckGolden("DeviceRunPaths", doc);
}

// --- Device maintenance -----------------------------------------------------

// FNV-1a over every page group's stored bytes (a never-written or erased
// group hashes as one marker byte) and OOB record.
std::string BackboneFnv1a(const FlashBackbone& bb) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  const std::uint64_t group_bytes = bb.config().GroupBytes();
  for (std::uint64_t g = 0; g < bb.config().TotalGroups(); ++g) {
    const std::uint8_t* data = bb.GroupData(g);
    const unsigned char stored = data != nullptr ? 1 : 0;
    mix(&stored, 1);
    if (data != nullptr) {
      mix(data, group_bytes);
    }
    const FlashBackbone::OobEntry oob = bb.Oob(g);
    mix(&oob.tag, sizeof oob.tag);
    mix(&oob.seq, sizeof oob.seq);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

struct MaintenanceCase {
  std::string name;
  double utilization = 0.5;  // share of the logical capacity the churn covers
  FaultConfig fault;
  Tick journal_interval = 50 * kMs;
  bool background_gc = true;
  Tick gap = 2 * kMs;  // between two requests
};

// Flashvisor and a started Storengine on TinyNand with 32 blocks per plane
// (32 block groups of 64 page groups): the region is filled eight groups at
// a time, then 3,000 one-group reads and overwrites (half each, seeded)
// arrive `gap` apart while GC runs every millisecond, scrub every 10 ms and
// the journal every `journal_interval`. Returns every Flashvisor, Storengine
// and flash counter once the device drains; `flash_fnv1a` receives a hash of
// the flash contents.
MetricsSnapshot RunMaintenance(const MaintenanceCase& c, std::string* flash_fnv1a) {
  NandConfig nand = TinyNand();
  nand.blocks_per_plane = 32;
  nand.fault = c.fault;
  Simulator sim;
  FlashBackbone bb(nand);
  Dram dram(DramConfig{});
  Scratchpad spm(ScratchpadConfig{});
  Flashvisor fv(&sim, &bb, &dram, &spm);
  StorengineConfig se_cfg;
  se_cfg.gc_interval = 1 * kMs;
  se_cfg.journal_interval = c.journal_interval;
  se_cfg.scrub_interval = 10 * kMs;
  se_cfg.enable_background_gc = c.background_gc;
  Storengine se(&sim, &fv, se_cfg);
  MetricsRegistry reg;
  fv.RegisterMetrics(&reg, "flashvisor");
  se.RegisterMetrics(&reg, "storengine");
  bb.RegisterMetrics(&reg, "flash");
  se.Start();

  const std::uint64_t group_bytes = nand.GroupBytes();
  const std::uint64_t groups = static_cast<std::uint64_t>(
      c.utilization * static_cast<double>(fv.LogicalCapacityBytes() / group_bytes));
  const std::uint64_t base = fv.AllocLogicalExtent(groups * group_bytes);
  Rng rng(c.fault.seed * 31 + 7);
  std::vector<std::uint8_t> pool(16 * group_bytes);
  for (std::uint8_t& b : pool) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  std::vector<std::uint8_t> readback(group_bytes);
  auto submit = [&](bool read, std::uint64_t first, std::uint64_t n) {
    Flashvisor::IoRequest req;
    req.type = read ? Flashvisor::IoRequest::Type::kRead : Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = base + first * group_bytes;
    req.model_bytes = n * group_bytes;
    req.func_data = read ? readback.data() : pool.data() + rng.NextBelow(8) * group_bytes;
    req.func_bytes = n * group_bytes;
    req.on_complete = [](Tick, IoStatus) {};
    fv.SubmitIo(std::move(req));
  };
  for (std::uint64_t g = 0; g < groups; g += 8) {
    submit(/*read=*/false, g, std::min<std::uint64_t>(8, groups - g));
    sim.Run();
  }
  std::function<void(int)> next = [&](int left) {
    if (left == 0) {
      return;
    }
    submit(rng.NextBelow(2) == 0, rng.NextBelow(groups), 1);
    sim.Schedule(c.gap, [&next, left]() { next(left - 1); });
  };
  next(3000);
  sim.RunUntil(sim.Now() + 3000 * c.gap);
  se.Stop();
  sim.Run();
  *flash_fnv1a = BackboneFnv1a(bb);
  return reg.Snapshot(sim.Now());
}

// One case per fault kind, each kept below the fault levels at which
// Flashvisor's foreground reclaim runs out of destinations, plus one with
// background GC off so the free pool runs dry and Flashvisor reclaims inline.
TEST(GoldenDeviceMaintenance, MatchesCheckedInCounters) {
  std::vector<MaintenanceCase> cases(4);
  cases[0].name = "erase_failures";  // a GC victim's and two journals' erases fail
  cases[0].fault.seed = 3;
  cases[0].fault.erase_failure_rate = 0.02;
  cases[0].journal_interval = 20 * kMs;
  cases[1].name = "program_failures";  // a journal abort, scrubs of retired groups
  cases[1].utilization = 0.25;
  cases[1].fault.seed = 8;
  cases[1].fault.program_failure_rate = 0.001;
  cases[2].name = "read_errors";  // error-driven scrub passes
  cases[2].utilization = 0.25;
  cases[2].fault.seed = 7;
  cases[2].fault.read_error_base = 0.5;
  cases[2].journal_interval = 100 * kMs;
  cases[3].name = "foreground_reclaim";
  cases[3].utilization = 0.25;
  cases[3].fault.seed = 9;
  cases[3].background_gc = false;
  cases[3].gap = 500 * kUs;

  std::string doc = "{";
  const char* separator = "\n";
  std::vector<MetricsSnapshot> ends;
  for (const MaintenanceCase& c : cases) {
    std::string fnv;
    const MetricsSnapshot& m = ends.emplace_back(RunMaintenance(c, &fnv));
    JsonWriter w;
    w.BeginObject();
    w.Key("counters");
    m.WriteJson(&w);
    w.Field("flash_fnv1a", fnv);
    w.EndObject();
    doc += separator;
    separator = ",\n";
    doc += "\"" + c.name + "\": " + w.str();
  }
  doc += "\n}";
  // Each case reaches the path it is named for.
  EXPECT_LT(ends[0].Value("storengine/blocks_reclaimed"), ends[0].Value("storengine/gc_passes"));
  EXPECT_GT(ends[1].Value("storengine/journal_aborts"), 0.0);
  EXPECT_GT(ends[1].Value("storengine/scrub_passes"), 0.0);
  EXPECT_GT(ends[2].Value("storengine/scrub_migrations"), 0.0);
  EXPECT_GT(ends[3].Value("flashvisor/foreground_reclaims"), 0.0);
  CheckGolden("DeviceMaintenance", doc);
}

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

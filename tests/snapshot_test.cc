// Snapshot/restore property tests (docs/SNAPSHOT.md).
//
// The core contract: a run split into K snapshot/resume segments produces
// run reports byte-identical to the unbroken run — under random fault
// configs, and with the FTL mid-life (TinyNand keeps GC, journal dumps and
// wear pressure active between segments). Plus
// the rejection surface: truncated, corrupt, version-skewed, kind-mismatched
// and geometry-mismatched snapshots all fail cleanly with an error message,
// never a crash or a silently wrong resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mapping_table.h"
#include "src/core/storengine.h"
#include "src/fleet/fleet.h"
#include "src/sim/json.h"
#include "src/sim/snapshot.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

std::string TempSnapPath(const std::string& tag) {
  return ::testing::TempDir() + "fabsnap_" + tag + ".snap";
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A scripted device session: a fixed sequence of quiescent-point phases
// (installs, journal dumps, runs) that the segmented and unbroken variants
// execute identically. Workload instances live host-side and survive the
// device swap a resume performs, exactly like a host process would across a
// simulator checkpoint.
struct Session {
  FlashAbacusConfig cfg;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<FlashAbacus> dev;
  std::vector<std::unique_ptr<AppInstance>> insts;
  std::vector<std::string> reports;  // ToJson() of every Run phase, in order

  void Fresh() {
    dev.reset();
    sim = std::make_unique<Simulator>();
    dev = std::make_unique<FlashAbacus>(sim.get(), cfg);
  }

  void PrepareInstances(const Workload& wl, int n, std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      insts.push_back(
          std::make_unique<AppInstance>(0, i, &wl.spec(), cfg.model_scale));
      wl.Prepare(*insts.back(), rng);
    }
  }

  void Install(int i) {
    bool done = false;
    dev->InstallData(insts[static_cast<std::size_t>(i)].get(),
                     [&](Tick) { done = true; });
    sim->Run();
    ASSERT_TRUE(done);
  }

  void JournalDump() {
    bool done = false;
    dev->storengine().RunJournalDump([&](Tick) { done = true; });
    sim->Run();
    ASSERT_TRUE(done);
  }

  void RunSet(const std::vector<int>& which) {
    std::vector<AppInstance*> raw;
    for (int i : which) {
      raw.push_back(insts[static_cast<std::size_t>(i)].get());
    }
    bool done = false;
    dev->Run(raw, SchedulerKind::kIntraOutOfOrder, [&](RunReport r) {
      reports.push_back(r.ToJson());
      done = true;
    });
    sim->Run();
    ASSERT_TRUE(done);
  }

  // The scripted phase list; every phase ends at a quiescent point, so any
  // inter-phase boundary is a legal snapshot point.
  static constexpr int kPhases = 6;
  void DoPhase(int p) {
    switch (p) {
      case 0: Install(0); break;
      case 1: Install(1); break;
      case 2: JournalDump(); break;
      case 3: RunSet({0}); break;
      case 4: Install(2); break;
      case 5: RunSet({0, 1, 2}); break;
      default: FAIL() << "no phase " << p;
    }
  }
};

FlashAbacusConfig FaultyTinyConfig(std::uint64_t fault_seed) {
  FlashAbacusConfig cfg = TestDeviceConfig();
  cfg.nand = TinyNand();
  Rng rng(fault_seed);
  cfg.nand.fault.seed = rng.Next();
  cfg.nand.fault.read_error_base = 0.02 + 0.08 * rng.NextDouble();
  cfg.nand.fault.read_error_wear_slope = 0.05 * rng.NextDouble();
  cfg.nand.fault.program_failure_rate = 0.01 * rng.NextDouble();
  cfg.nand.fault.erase_failure_rate = 0.005 * rng.NextDouble();
  cfg.nand.fault.die_stall_rate = 0.01 * rng.NextDouble();
  return cfg;
}

// Runs the scripted session unbroken on one device.
std::vector<std::string> RunUnbroken(const FlashAbacusConfig& cfg, const Workload& wl) {
  Session s;
  s.cfg = cfg;
  s.Fresh();
  s.PrepareInstances(wl, 3, 42);
  for (int p = 0; p < Session::kPhases; ++p) {
    s.DoPhase(p);
    if (::testing::Test::HasFatalFailure()) return {};
  }
  return s.reports;
}

// Runs the same script split into `boundaries.size() + 1` segments; each
// boundary snapshots the device to disk and resumes into a brand-new
// Simulator + FlashAbacus.
std::vector<std::string> RunSegmented(const FlashAbacusConfig& cfg, const Workload& wl,
                                      const std::vector<int>& boundaries,
                                      const std::string& tag) {
  Session s;
  s.cfg = cfg;
  s.Fresh();
  s.PrepareInstances(wl, 3, 42);
  std::size_t next_cut = 0;
  for (int p = 0; p < Session::kPhases; ++p) {
    s.DoPhase(p);
    if (::testing::Test::HasFatalFailure()) return {};
    if (next_cut < boundaries.size() && boundaries[next_cut] == p) {
      const std::string path = TempSnapPath(tag + "_" + std::to_string(p));
      std::string err;
      EXPECT_TRUE(s.dev->Snapshot(path, &err)) << err;
      s.Fresh();
      EXPECT_TRUE(s.dev->Resume(path, &err)) << err;
      std::remove(path.c_str());
      ++next_cut;
    }
  }
  return s.reports;
}

TEST(SnapshotDevice, SegmentedMatchesUnbrokenAcrossRandomFaultConfigs) {
  const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
  ASSERT_NE(wl, nullptr);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FlashAbacusConfig cfg = FaultyTinyConfig(seed);
    const auto unbroken = RunUnbroken(cfg, *wl);
    ASSERT_FALSE(unbroken.empty()) << "seed " << seed;
    // K=2: one cut, rotated through the script by seed.
    const int cut = static_cast<int>(seed % (Session::kPhases - 1));
    const auto segmented = RunSegmented(cfg, *wl, {cut}, "k2_" + std::to_string(seed));
    EXPECT_EQ(unbroken, segmented) << "seed " << seed << " cut after phase " << cut;
  }
}

TEST(SnapshotDevice, FourSegmentsMatchUnbroken) {
  const Workload* wl = WorkloadRegistry::Get().Find("GESUM");
  ASSERT_NE(wl, nullptr);
  // Program/erase faults retire blocks; under the heavier GESUM footprint the
  // tiny geometry runs out of sealed groups regardless of snapshotting, so
  // this script keeps the read/stall fault classes only (the random-config
  // grid above covers program/erase failures with ATAX).
  FlashAbacusConfig cfg = FaultyTinyConfig(7);
  cfg.nand.fault.program_failure_rate = 0.0;
  cfg.nand.fault.erase_failure_rate = 0.0;
  const auto unbroken = RunUnbroken(cfg, *wl);
  ASSERT_FALSE(unbroken.empty());
  // K=4: cuts after phases 1, 3 and 4 — mid-life FTL, between runs, and
  // right after a post-run install.
  const auto segmented = RunSegmented(cfg, *wl, {1, 3, 4}, "k4");
  EXPECT_EQ(unbroken, segmented);
}

// --- Rejection surface ------------------------------------------------------

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = TestDeviceConfig();
    cfg_.nand = TinyNand();
    sim_ = std::make_unique<Simulator>();
    dev_ = std::make_unique<FlashAbacus>(sim_.get(), cfg_);
    path_ = TempSnapPath("reject");
    std::string err;
    ASSERT_TRUE(dev_->Snapshot(path_, &err)) << err;
  }

  void TearDown() override { std::remove(path_.c_str()); }

  FlashAbacusConfig cfg_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<FlashAbacus> dev_;
  std::string path_;
};

TEST_F(SnapshotRejection, TruncatedFileIsRejected) {
  std::vector<std::uint8_t> bytes = ReadFileBytes(path_);
  ASSERT_GT(bytes.size(), 32u);
  bytes.resize(bytes.size() / 2);
  WriteFileBytes(path_, bytes);
  SnapshotFile snap;
  std::string err;
  EXPECT_FALSE(SnapshotFile::Load(path_, &snap, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(SnapshotRejection, CorruptPayloadFailsChecksum) {
  std::vector<std::uint8_t> bytes = ReadFileBytes(path_);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0xA5;  // flip bits deep in some section payload
  WriteFileBytes(path_, bytes);
  SnapshotFile snap;
  std::string err;
  EXPECT_FALSE(SnapshotFile::Load(path_, &snap, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(SnapshotRejection, BadMagicIsRejected) {
  std::vector<std::uint8_t> bytes = ReadFileBytes(path_);
  bytes[0] ^= 0xFF;
  WriteFileBytes(path_, bytes);
  SnapshotFile snap;
  std::string err;
  EXPECT_FALSE(SnapshotFile::Load(path_, &snap, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(SnapshotRejection, SectionVersionMismatchIsRejected) {
  SnapshotBuilder b("device");
  b.AddSection("sim", 2).U64(123);
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(b.Serialize(), &snap, &err)) << err;
  StateReader r = snap.Open("sim", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();
}

TEST_F(SnapshotRejection, KindMismatchIsRejected) {
  SnapshotBuilder b("fleet");
  b.AddSection("fleet", 1).U32(1);
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(b.Serialize(), &snap, &err)) << err;
  Simulator sim2;
  FlashAbacus dev2(&sim2, cfg_);
  EXPECT_FALSE(dev2.Resume(snap, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(SnapshotRejection, GeometryFingerprintMismatchIsRejected) {
  // A snapshot of the tiny geometry must not restore into the Small preset.
  FlashAbacusConfig other = TestDeviceConfig();  // default (non-tiny) NAND
  ASSERT_NE(other.nand.blocks_per_plane, cfg_.nand.blocks_per_plane);
  Simulator sim2;
  FlashAbacus dev2(&sim2, other);
  std::string err;
  EXPECT_FALSE(dev2.Resume(path_, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(SnapshotRejection, ResumeAfterFailureLeavesCleanError) {
  // Missing file: Load fails, never CHECKs.
  std::string err;
  Simulator sim2;
  FlashAbacus dev2(&sim2, cfg_);
  EXPECT_FALSE(dev2.Resume(path_ + ".does-not-exist", &err));
  EXPECT_FALSE(err.empty());
}

// --- Out-of-range values in a well-formed snapshot ---------------------------
//
// Each case overwrites one value of a valid snapshot and rebuilds the
// container, so the checksum holds and only the component's own load checks
// stand between the value and the device's vectors.

// A two-tenant TinyNand device after tenant 1 installed an ATAX dataset: the
// patched sections all carry live entries (mapped groups, trace intervals,
// pool entries, in-flight programs, tenant-owned slots).
FlashAbacusConfig LiveConfig() {
  FlashAbacusConfig cfg = TestDeviceConfig();
  cfg.nand = TinyNand();
  cfg.tenant_sched.policy = TenantSchedPolicy::kWeightedFair;
  cfg.tenant_sched.tenants = {TenantSpec{"a"}, TenantSpec{"b"}};
  return cfg;
}

const std::vector<std::uint8_t>& LiveSnapshot() {
  static const std::vector<std::uint8_t> bytes = [] {
    const FlashAbacusConfig cfg = LiveConfig();
    const Workload* wl = WorkloadRegistry::Get().Find("ATAX");
    Simulator sim;
    FlashAbacus dev(&sim, cfg);
    AppInstance inst(0, 0, &wl->spec(), cfg.model_scale);
    Rng rng(3);
    wl->Prepare(inst, rng);
    inst.tenant = 1;
    dev.InstallData(&inst, [](Tick) {});
    sim.Run();
    return dev.BuildSnapshot().Serialize();
  }();
  return bytes;
}

// Offset of `r`'s next read within `payload`.
std::size_t Offset(const std::vector<std::uint8_t>& payload, const StateReader& r) {
  return payload.size() - r.remaining();
}

// LiveSnapshot() with the `width`-byte little-endian value at the offset
// `locate` returns inside section `name` replaced by `value`.
std::vector<std::uint8_t> Patched(
    const std::string& name,
    const std::function<std::size_t(const std::vector<std::uint8_t>&)>& locate, int width,
    std::uint64_t value) {
  SnapshotFile snap;
  std::string err;
  EXPECT_TRUE(SnapshotFile::Parse(LiveSnapshot(), &snap, &err)) << err;
  SnapshotBuilder b(snap.kind());
  for (const SnapshotFile::Section& s : snap.sections()) {
    std::vector<std::uint8_t> payload = s.payload;
    if (s.name == name) {
      const std::size_t at = locate(payload);
      EXPECT_LE(at + static_cast<std::size_t>(width), payload.size()) << name;
      for (int i = 0; i < width && at + static_cast<std::size_t>(i) < payload.size(); ++i) {
        payload[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value >> (8 * i));
      }
    }
    b.AddBlobSection(s.name, s.version, std::move(payload));
  }
  return b.Serialize();
}

// Resumes `bytes` into a fresh device and expects a refusal naming `section`.
void ExpectRejected(const std::vector<std::uint8_t>& bytes, const std::string& section) {
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(bytes, &snap, &err)) << err;
  Simulator sim;
  FlashAbacus dev(&sim, LiveConfig());
  EXPECT_FALSE(dev.Resume(snap, &err)) << section << " value accepted";
  EXPECT_NE(err.find("\"" + section + "\""), std::string::npos) << err;
}

// Offset of the n-th forward entry of ftl/map that maps a group (the payload
// size when there is none).
std::size_t MappedEntry(const std::vector<std::uint8_t>& p, int n) {
  StateReader r(p);
  const std::uint64_t entries = r.U64();
  for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
    const std::size_t at = Offset(p, r);
    if (r.U32() != MappingTable::kUnmapped && n-- == 0) {
      return at;
    }
  }
  return p.size();
}

TEST_F(SnapshotRejection, MappingEntryPastGroupCountIsRejected) {
  const std::uint64_t groups = LiveConfig().nand.TotalGroups();
  ExpectRejected(
      Patched("ftl/map", [](const auto& p) { return MappedEntry(p, 0); }, 4, groups),
      "ftl/map");
  // Two logical groups naming one physical group.
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(LiveSnapshot(), &snap, &err)) << err;
  const std::vector<std::uint8_t>& map = snap.Find("ftl/map")->payload;
  StateReader first(map.data() + MappedEntry(map, 0), 4);
  ExpectRejected(
      Patched("ftl/map", [](const auto& p) { return MappedEntry(p, 1); }, 4, first.U32()),
      "ftl/map");
}

TEST_F(SnapshotRejection, TraceTagOutOfRangeIsRejected) {
  // mask, interval count, then the first interval's start and end.
  ExpectRejected(Patched("trace", [](const auto&) { return 4 + 8 + 16; }, 4, 40), "trace");
}

TEST_F(SnapshotRejection, BlockPoolEntryOutOfRangeIsRejected) {
  const std::uint64_t block_groups = LiveConfig().nand.TotalBlockGroups();
  // The block-group count and the free pool's length precede it.
  const auto first_free = [](const auto&) { return 8 + 8; };
  ExpectRejected(Patched("ftl/blocks", first_free, 8, block_groups), "ftl/blocks");
  // A free block group that is listed twice.
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(LiveSnapshot(), &snap, &err)) << err;
  StateReader r(snap.Find("ftl/blocks")->payload);
  r.U64();
  ASSERT_GE(r.U64(), 2u);
  const std::uint64_t free0 = r.U64();
  ExpectRejected(Patched("ftl/blocks", [](const auto&) { return 8 + 8 + 8; }, 8, free0),
                 "ftl/blocks");
}

TEST_F(SnapshotRejection, PooledBlockGroupMarkedRetiredIsRejected) {
  // A free block group flagged retired would resume, then trip
  // SealBlockGroup's CHECK on its first allocation. The retirement flags are
  // the section's last bytes, one per block group.
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(LiveSnapshot(), &snap, &err)) << err;
  StateReader r(snap.Find("ftl/blocks")->payload);
  const std::uint64_t block_groups = r.U64();
  ASSERT_GE(r.U64(), 1u);
  const std::uint64_t free0 = r.U64();
  const auto flag = [block_groups, free0](const std::vector<std::uint8_t>& p) {
    return p.size() - block_groups + free0;
  };
  ExpectRejected(Patched("ftl/blocks", flag, 1, 1), "ftl/blocks");
}

TEST_F(SnapshotRejection, InflightProgramGroupOutOfRangeIsRejected) {
  // Walks the flash section to its first in-flight program.
  const auto first_inflight = [](const std::vector<std::uint8_t>& p) {
    StateReader r(p);
    r.U64();  // SRIO link: next free, busy tracker, bytes moved, transfers
    r.U64();
    r.U64();
    r.I32();
    r.F64();
    r.U64();
    r.U64();  // page contents: chunk size, then the chunks
    for (std::uint64_t n = r.U64(), i = 0; i < n && r.ok(); ++i) {
      r.U64();
      r.VecU8();
    }
    for (std::uint64_t n = r.U64(), i = 0; i < n && r.ok(); ++i) {
      r.U32();  // OOB tag and sequence number
      r.U64();
    }
    r.U64();  // program sequence
    for (std::uint64_t n = r.U64(), i = 0; i < n && r.ok(); ++i) {
      r.U64();  // block errors
    }
    EXPECT_GT(r.U64(), 0u) << "no in-flight program to patch";
    return Offset(p, r);
  };
  ExpectRejected(Patched("flash", first_inflight, 8, LiveConfig().nand.TotalGroups()),
                 "flash");
}

TEST_F(SnapshotRejection, FlashvisorSlotTenantOutOfRangeIsRejected) {
  const NandConfig nand = LiveConfig().nand;
  // Walks the flashvisor section past its write buffer to the cursors.
  const auto active_bg = [](const std::vector<std::uint8_t>& p) {
    StateReader r(p);
    for (std::uint64_t n = r.U64(), i = 0; i < n && r.ok(); ++i) {
      r.U64();
      r.U64();
    }
    r.U64();  // write buffer bytes
    return Offset(p, r);
  };
  ExpectRejected(Patched("flashvisor", active_bg, 8, nand.TotalBlockGroups()), "flashvisor");
  // Past the active block group and slot, two cursors, the core, the
  // inbound queue and seven counters: the count of tenant-owned slots, then
  // the first one's physical group.
  const auto first_slot = [&active_bg](const std::vector<std::uint8_t>& p) {
    const std::size_t owned = active_bg(p) + 8 + 4 + 8 + 8 + 28 + 24 + 7 * 8;
    StateReader r(p.data() + owned, 8);
    EXPECT_GT(r.U64(), 0u) << "no tenant-owned slot to patch";
    return owned + 8;
  };
  ExpectRejected(Patched("flashvisor", first_slot, 4, nand.TotalGroups()), "flashvisor");
}

// --- Fleet ------------------------------------------------------------------

FleetConfig SmallFleetConfig() {
  FleetConfig cfg;
  cfg.num_devices = 2;
  cfg.policy = PlacementPolicy::kDataAffinity;
  cfg.traffic.model = TrafficConfig::Model::kOpenLoop;
  cfg.traffic.total_requests = 16;
  cfg.traffic.seed = 99;
  return cfg;
}

TEST(SnapshotFleet, ResumeIsDeterministicAndWarm) {
  const FleetConfig cfg = SmallFleetConfig();
  const std::string path = TempSnapPath("fleet");
  std::uint64_t cold_installs = 0;
  {
    FleetSim fleet(cfg);
    const FleetReport rep = fleet.Run();
    ASSERT_GT(rep.served, 0u);
    for (const FleetDeviceStats& d : rep.devices) {
      cold_installs += d.installs;
    }
    ASSERT_GT(cold_installs, 0u) << "cold run must install datasets";
    std::string err;
    ASSERT_TRUE(fleet.Snapshot(path, &err)) << err;
  }
  auto resume_and_run = [&]() {
    FleetSim fleet(cfg);
    std::string err;
    EXPECT_TRUE(fleet.Resume(path, &err)) << err;
    return fleet.Run().ToJson();
  };
  // Two independent resumes of the same snapshot serve the continuation
  // window byte-identically (the fleet determinism gate: serving stats are a
  // fresh window, so identity with the unbroken run is not the contract —
  // see docs/SNAPSHOT.md).
  const std::string a = resume_and_run();
  const std::string b = resume_and_run();
  EXPECT_EQ(a, b);
  // And the resumed fleet is warm: flash-resident datasets are reused.
  {
    FleetSim fleet(cfg);
    std::string err;
    ASSERT_TRUE(fleet.Resume(path, &err)) << err;
    const FleetReport rep = fleet.Run();
    std::uint64_t warm_installs = 0;
    std::uint64_t warm_hits = 0;
    for (const FleetDeviceStats& d : rep.devices) {
      warm_installs += d.installs;
      warm_hits += d.install_hits;
    }
    EXPECT_GT(warm_hits, 0u);
    EXPECT_LT(warm_installs, cold_installs);
  }
  std::remove(path.c_str());
}

// A resumed open-loop window continues the request ids, and with them the
// client round-robin, on either execution path: a lockstep and a partitioned
// fleet resumed from one snapshot serve the same requests and report alike.
TEST(SnapshotFleet, ResumedLockstepAndPartitionedFleetsAgree) {
  FleetConfig cfg;
  cfg.num_devices = 2;
  cfg.policy = PlacementPolicy::kRoundRobin;
  cfg.max_route_attempts = 1;
  cfg.traffic.model = TrafficConfig::Model::kOpenLoop;
  cfg.traffic.total_requests = 18;  // not a multiple of the 8 clients
  cfg.traffic.seed = 7;
  const std::string path = TempSnapPath("fleet_paths");
  {
    FleetSim fleet(cfg);
    fleet.Run();
    std::string err;
    ASSERT_TRUE(fleet.Snapshot(path, &err)) << err;
  }
  auto resume_and_run = [&](FleetConfig::Execution execution) {
    FleetConfig resumed = cfg;
    resumed.execution = execution;
    FleetSim fleet(resumed);
    std::string err;
    EXPECT_TRUE(fleet.Resume(path, &err)) << err;
    FleetReport rep = fleet.Run();
    rep.execution.clear();
    return rep.ToJson();
  };
  const std::string lockstep = resume_and_run(FleetConfig::Execution::kLockstep);
  const std::string partitioned = resume_and_run(FleetConfig::Execution::kPartitioned);
  std::vector<std::string> lines;
  EXPECT_EQ(JsonFieldDiffText(lockstep, partitioned, &lines), 0)
      << ::testing::PrintToString(lines);
  std::remove(path.c_str());
}

TEST(SnapshotFleet, SketchGeometryMismatchIsRejected) {
  // The v3 fleet section fingerprints the LogHistogram / BoundedTimeSeries
  // layout; a snapshot from a binary with different bucket geometry must be
  // refused up front instead of mis-parsing embedded sketch state.
  SnapshotBuilder b("fleet");
  StateWriter& w = b.AddSection("fleet", 3);
  w.U32(2);   // num_devices matches SmallFleetConfig
  w.U64(4);   // the default 4-workload mix
  w.I32(LogHistogram::kMinExp2 + 1);  // foreign histogram layout
  w.I32(LogHistogram::kMaxExp2);
  w.I32(LogHistogram::kSubBuckets);
  w.U32(static_cast<std::uint32_t>(BoundedTimeSeries::kDefaultMaxBins));
  SnapshotFile snap;
  std::string err;
  ASSERT_TRUE(SnapshotFile::Parse(b.Serialize(), &snap, &err)) << err;
  FleetSim fleet(SmallFleetConfig());
  EXPECT_FALSE(fleet.Resume(snap, &err));
  EXPECT_NE(err.find("sketch geometry"), std::string::npos) << err;
}

TEST(SnapshotFleet, DeviceCountMismatchIsRejected) {
  const FleetConfig cfg = SmallFleetConfig();
  const std::string path = TempSnapPath("fleet_mismatch");
  {
    FleetSim fleet(cfg);
    fleet.Run();
    std::string err;
    ASSERT_TRUE(fleet.Snapshot(path, &err)) << err;
  }
  FleetConfig bigger = cfg;
  bigger.num_devices = 3;
  FleetSim fleet(bigger);
  std::string err;
  EXPECT_FALSE(fleet.Resume(path, &err));
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fabacus

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
#include <memory>
#include <string>
#include <vector>

#include "src/core/storengine.h"
#include "src/fleet/fleet.h"
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

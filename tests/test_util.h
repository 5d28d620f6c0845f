// Shared helpers for the FlashAbacus test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flashabacus.h"
#include "src/core/kernel.h"
#include "src/host/simd_system.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workloads/workload.h"

namespace fabacus {

// A miniature flash geometry so FTL edge paths (GC, sealing, watermarks) are
// reachable in milliseconds of simulated time.
inline NandConfig TinyNand() {
  NandConfig cfg;
  cfg.blocks_per_plane = 8;
  cfg.pages_per_block = 16;
  // 4 channels x 4 packages: 8 block groups of 64 page groups (62 data slots
  // plus the two-slot summary footer), 512 page groups of 64 KiB, 32 MiB.
  return cfg;
}

// Device config scaled for fast tests (the Small preset).
inline FlashAbacusConfig TestDeviceConfig() {
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  // Tests assert on per-screen / per-channel trace contents (Chrome-trace
  // round trips, compute-time invariants), so keep the full trace on.
  cfg.record_full_trace = true;
  return cfg;
}

// A randomized multi-microblock workload with a verifiable streaming body
// (scheduler property tests, workload contract tests).
class RandomWorkload : public Workload {
 public:
  explicit RandomWorkload(std::uint64_t seed) {
    Rng rng(seed);
    spec_.name = "RND" + std::to_string(seed);
    spec_.model_input_mb = 64.0 + rng.NextDouble() * 512.0;
    spec_.ldst_ratio = 0.2 + rng.NextDouble() * 0.3;
    spec_.bki = 5.0 + rng.NextDouble() * 60.0;
    const int mblks = 1 + static_cast<int>(rng.NextBelow(5));
    double remaining = 1.0;
    for (int m = 0; m < mblks; ++m) {
      MicroblockSpec spec;
      spec.name = std::string("m").append(std::to_string(m));
      spec.serial = rng.NextDouble() < 0.3;
      spec.work_fraction = (m == mblks - 1) ? remaining : remaining * rng.NextDouble(0.2, 0.6);
      remaining -= (m == mblks - 1) ? remaining : spec.work_fraction;
      spec.frac_ldst = spec_.ldst_ratio;
      spec.frac_mul = (1.0 - spec.frac_ldst) * 0.4;
      spec.frac_alu = 1.0 - spec.frac_ldst - spec.frac_mul;
      spec.func_iterations = kElems;
      const int mblk_index = m;
      const int total = mblks;
      spec.body = [mblk_index, total](AppInstance& inst, std::size_t begin, std::size_t end) {
        // Each microblock adds a distinct constant to its slice; serial
        // blocks receive the full range. The final buffer value encodes how
        // many microblocks processed each element — order-insensitive within
        // a microblock, order-sensitive across them via scaling.
        std::vector<float>& v = inst.buffer(1);
        const std::vector<float>& in = inst.buffer(0);
        for (std::size_t i = begin; i < end; ++i) {
          v[i] = v[i] * 0.5f + in[i] + static_cast<float>(mblk_index + 1);
        }
        (void)total;
      };
      spec_.microblocks.push_back(spec);
    }
    spec_.sections = {
        {"in", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"out", DataSectionSpec::Dir::kOut, 0.5, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    inst.buffer(0).resize(kElems);
    for (auto& f : inst.buffer(0)) {
      f = rng.NextFloat(-1.0f, 1.0f);
    }
    inst.buffer(1).assign(kElems, 0.0f);
  }

  // The input is read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    inst.buffer(1).assign(kElems, 0.0f);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kElems, 0.0f);
    const std::vector<float>& in = inst.buffer(0);
    for (std::size_t m = 0; m < spec_.microblocks.size(); ++m) {
      for (std::size_t i = 0; i < kElems; ++i) {
        ref[i] = ref[i] * 0.5f + in[i] + static_cast<float>(m + 1);
      }
    }
    return Outputs({{1, std::move(ref)}});
  }

 private:
  static constexpr std::size_t kElems = 4096;
};

// Runs a kernel functionally: every microblock in order, each split into
// `fanout` screen slices executed sequentially (any order within a
// microblock must be valid).
inline void RunFunctionally(const Workload& wl, AppInstance* inst, int fanout) {
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

// Runs `workload` end to end on a fresh FlashAbacus device under `kind`.
// Returns the run result; `instances` receives the executed instances so the
// caller can Verify() them.
struct E2eOutcome {
  RunReport result;
  std::vector<std::unique_ptr<AppInstance>> instances;
  bool install_done = false;
  bool run_done = false;
};

inline E2eOutcome RunOnFlashAbacus(const Workload& workload, int n_instances,
                                   SchedulerKind kind,
                                   FlashAbacusConfig cfg = TestDeviceConfig(),
                                   std::uint64_t seed = 42) {
  Simulator sim;
  FlashAbacus dev(&sim, cfg);
  Rng rng(seed);
  E2eOutcome out;
  std::vector<AppInstance*> raw;
  int installs_pending = n_instances;
  for (int i = 0; i < n_instances; ++i) {
    auto inst = std::make_unique<AppInstance>(0, i, &workload.spec(), cfg.model_scale);
    workload.Prepare(*inst, rng);
    raw.push_back(inst.get());
    out.instances.push_back(std::move(inst));
  }
  for (AppInstance* inst : raw) {
    dev.InstallData(inst, [&](Tick) {
      if (--installs_pending == 0) {
        out.install_done = true;
      }
    });
  }
  sim.Run();
  dev.Run(raw, kind, [&](RunReport r) {
    out.result = std::move(r);
    out.run_done = true;
  });
  sim.Run();
  return out;
}

}  // namespace fabacus

#endif  // TESTS_TEST_UTIL_H_

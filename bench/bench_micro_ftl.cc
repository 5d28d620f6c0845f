// google-benchmark microbenchmarks for the FTL hot paths: mapping-table
// lookups/updates and the Flashvisor write allocation path (including block
// sealing).
#include <benchmark/benchmark.h>

#include "src/core/flashvisor.h"
#include "src/core/mapping_table.h"
#include "src/flash/flash_backbone.h"
#include "src/mem/scratchpad.h"
#include "src/sim/simulator.h"

namespace fabacus {
namespace {

NandConfig SmallNand() {
  NandConfig cfg;
  cfg.blocks_per_plane = 64;
  cfg.pages_per_block = 64;
  return cfg;
}

void BM_MappingLookup(benchmark::State& state) {
  NandConfig nand = SmallNand();
  Scratchpad spm(ScratchpadConfig{});
  MappingTable map(nand, &spm);
  const std::uint64_t n = nand.TotalGroups();
  for (std::uint64_t g = 0; g < n; ++g) {
    map.Update(g, static_cast<std::uint32_t>((g * 7) % n));
  }
  std::uint64_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Lookup(g));
    g = (g + 13) % n;
  }
}
BENCHMARK(BM_MappingLookup);

void BM_MappingUpdate(benchmark::State& state) {
  NandConfig nand = SmallNand();
  Scratchpad spm(ScratchpadConfig{});
  MappingTable map(nand, &spm);
  const std::uint64_t n = nand.TotalGroups();
  std::uint64_t g = 0;
  for (auto _ : state) {
    map.Update(g % n, static_cast<std::uint32_t>((g * 31 + 7) % n));
    ++g;
  }
}
BENCHMARK(BM_MappingUpdate);

void BM_FlashvisorWritePath(benchmark::State& state) {
  // Host-side cost of the full synchronous write-allocation machinery:
  // allocation, mapping update (with its live count), group program
  // reservation (simulation bookkeeping only — no wall-clock flash latency).
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    NandConfig nand = SmallNand();
    FlashBackbone backbone(nand);
    DramConfig dc;
    Dram dram(dc);
    Scratchpad spm(ScratchpadConfig{});
    Flashvisor fv(&sim, &backbone, &dram, &spm);
    state.ResumeTiming();
    for (int g = 0; g < 512; ++g) {
      const std::uint32_t phys = fv.AllocatePhysicalGroup(0);
      fv.mapping().Update(static_cast<std::uint64_t>(g), phys);
      benchmark::DoNotOptimize(phys);
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FlashvisorWritePath);

}  // namespace
}  // namespace fabacus

BENCHMARK_MAIN();

// Tests for the FTL layers: mapping table, block manager, and Flashvisor's
// log-structured write path (allocation, sealing, overwrite invalidation,
// emergency reclaim) with byte-accurate round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/core/block_manager.h"
#include "src/core/flashvisor.h"
#include "src/core/mapping_table.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

class FtlFixture : public ::testing::Test {
 protected:
  FtlFixture()
      : nand_(TinyNand()),
        backbone_(nand_),
        dram_(DramConfig{}),
        scratchpad_(ScratchpadConfig{}),
        fv_(&sim_, &backbone_, &dram_, &scratchpad_) {}

  // Writes `payload` to `addr` and runs the simulator until idle. The
  // modelled length defaults to the payload size; pass `model_bytes` to
  // write a larger timing-only extent carrying the payload as its prefix.
  void Write(std::uint64_t addr, const std::vector<float>& payload,
             std::uint64_t model_bytes = 0) {
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = addr;
    req.model_bytes = model_bytes != 0 ? model_bytes : payload.size() * sizeof(float);
    req.func_data = const_cast<float*>(payload.data());
    req.func_bytes = payload.size() * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
  }

  std::vector<float> Read(std::uint64_t addr, std::size_t count) {
    std::vector<float> out(count, -1.0f);
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kRead;
    req.flash_addr = addr;
    req.model_bytes = count * sizeof(float);
    req.func_data = out.data();
    req.func_bytes = count * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
    return out;
  }

  std::vector<float> Pattern(std::size_t n, float seed) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = seed + static_cast<float>(i);
    }
    return v;
  }

  Simulator sim_;
  NandConfig nand_;
  FlashBackbone backbone_;
  Dram dram_;
  Scratchpad scratchpad_;
  Flashvisor fv_;
};

TEST(MappingTable, UpdateLookupReverse) {
  NandConfig nand = TinyNand();
  Scratchpad spm(ScratchpadConfig{});
  MappingTable map(nand, &spm);
  EXPECT_EQ(map.Lookup(5), MappingTable::kUnmapped);
  EXPECT_EQ(map.Update(5, 77), MappingTable::kUnmapped);
  EXPECT_EQ(map.Lookup(5), 77u);
  EXPECT_EQ(map.ReverseLookup(77), 5u);
  // Remap: old physical slot is orphaned.
  EXPECT_EQ(map.Update(5, 99), 77u);
  EXPECT_EQ(map.ReverseLookup(77), MappingTable::kUnmapped);
  EXPECT_EQ(map.ReverseLookup(99), 5u);
  EXPECT_EQ(map.mapped_count(), 1u);
}

TEST(MappingTable, SnapshotRestoreRoundTrips) {
  NandConfig nand = TinyNand();
  Scratchpad spm(ScratchpadConfig{});
  MappingTable map(nand, &spm);
  for (std::uint64_t g = 0; g < 50; ++g) {
    map.Update(g * 3 % map.entries(), static_cast<std::uint32_t>(g));
  }
  MappingTable restored(nand, &spm);
  restored.Restore(map.bytes());
  for (std::uint64_t g = 0; g < map.entries(); ++g) {
    EXPECT_EQ(restored.Lookup(g), map.Lookup(g));
  }
  EXPECT_EQ(restored.mapped_count(), map.mapped_count());
}

TEST(BlockManager, PoolLifecycle) {
  BlockManager bm(TinyNand());
  const std::size_t total = bm.total_block_groups();
  const std::uint64_t a = bm.AllocBlockGroup();
  const std::uint64_t b = bm.AllocBlockGroup();
  EXPECT_NE(a, b);
  EXPECT_EQ(bm.free_count(), total - 2);
  bm.SealBlockGroup(a);
  bm.SealBlockGroup(b);
  EXPECT_EQ(bm.PickVictim(), a);  // round-robin: oldest sealed first
  bm.OnErased(a);
  EXPECT_EQ(bm.free_count(), total - 1);
}

// The live count is the reverse map's own: after every step of a seeded mix
// of fresh and overwriting updates, unmaps, journal restores, snapshot round
// trips and clears, LiveCount(bg) equals the mapped ReverseLookups over bg's
// slots.
TEST(MappingTable, LiveCountMatchesReverseMap) {
  const NandConfig nand = TinyNand();
  Scratchpad spm(ScratchpadConfig{});
  MappingTable map(nand, &spm);
  const std::uint64_t groups = nand.TotalGroups();
  const std::uint64_t logical = groups / 2;
  Rng rng(20181);
  std::vector<std::uint8_t> journal(map.bytes().begin(), map.bytes().end());
  int fresh = 0;
  int overwrites = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t lg = rng.NextBelow(logical);
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 80) {
      // Like the write point, map only a physical group nobody holds.
      std::uint32_t phys = 0;
      do {
        phys = static_cast<std::uint32_t>(rng.NextBelow(groups));
      } while (map.ReverseLookup(phys) != MappingTable::kUnmapped);
      if (map.Update(lg, phys) == MappingTable::kUnmapped) {
        ++fresh;
      } else {
        ++overwrites;
      }
    } else if (op < 90) {
      map.Unmap(lg);
    } else if (op < 94) {
      journal.assign(map.bytes().begin(), map.bytes().end());
    } else if (op < 97) {
      map.Restore(journal);  // an older table comes back, as after a crash
    } else if (op < 99) {
      StateWriter w;
      SaveTo(map, w);
      map.Clear();
      StateReader r(w.buffer());
      LoadFrom(map, r);
      ASSERT_TRUE(r.ok()) << r.error();
    } else {
      map.Clear();
    }
    for (std::uint64_t bg = 0; bg < nand.TotalBlockGroups(); ++bg) {
      std::uint32_t live = 0;
      for (std::uint64_t s = 0; s < nand.GroupsPerBlockGroup(); ++s) {
        const GroupAddress a{static_cast<int>(s % nand.packages_per_channel),
                             static_cast<int>(bg),
                             static_cast<int>(s / nand.packages_per_channel)};
        const auto phys = static_cast<std::uint32_t>(EncodeGroup(nand, a));
        live += map.ReverseLookup(phys) != MappingTable::kUnmapped ? 1 : 0;
      }
      ASSERT_EQ(map.LiveCount(bg), live) << "block group " << bg << " after step " << step;
    }
  }
  EXPECT_GT(fresh, 0);
  EXPECT_GT(overwrites, 0);
}

TEST(BlockManager, EraseWithValidDataDies) {
  // Flashvisor's erase return holds the check, read from the mapping's live
  // count: a block group still holding a mapped group may neither be freed
  // nor retired.
  Simulator sim;
  const NandConfig nand = TinyNand();
  FlashBackbone backbone(nand);
  Dram dram(DramConfig{});
  Scratchpad spm(ScratchpadConfig{});
  Flashvisor fv(&sim, &backbone, &dram, &spm);
  const std::uint32_t phys = fv.AllocatePhysicalGroup(0);
  fv.mapping().Update(0, phys);
  const std::uint64_t bg = DecodeGroup(nand, phys).block;
  EXPECT_DEATH(fv.ReturnErased(bg, /*erase_failed=*/false), "valid data");
  EXPECT_DEATH(fv.ReturnErased(bg, /*erase_failed=*/true), "valid data");
}

TEST_F(FtlFixture, SingleGroupWriteReadRoundTrip) {
  const std::vector<float> data = Pattern(nand_.GroupBytes() / sizeof(float), 1.0f);
  const std::uint64_t addr = fv_.AllocLogicalExtent(nand_.GroupBytes());
  Write(addr, data);
  EXPECT_EQ(Read(addr, data.size()), data);
}

TEST_F(FtlFixture, MultiGroupExtentRoundTrip) {
  const std::size_t floats = 5 * nand_.GroupBytes() / sizeof(float);
  const std::vector<float> data = Pattern(floats, 7.0f);
  const std::uint64_t addr = fv_.AllocLogicalExtent(floats * sizeof(float));
  Write(addr, data);
  EXPECT_EQ(Read(addr, floats), data);
}

TEST_F(FtlFixture, UnwrittenSpaceReadsBackZero) {
  const std::uint64_t addr = fv_.AllocLogicalExtent(nand_.GroupBytes());
  const std::vector<float> out = Read(addr, 16);
  for (float f : out) {
    EXPECT_EQ(f, 0.0f);
  }
  EXPECT_EQ(backbone_.reads(), 0u);  // no device op for unmapped groups
}

TEST_F(FtlFixture, OverwriteReturnsNewDataAndInvalidatesOld) {
  const std::size_t floats = nand_.GroupBytes() / sizeof(float);
  const std::uint64_t addr = fv_.AllocLogicalExtent(nand_.GroupBytes());
  Write(addr, Pattern(floats, 1.0f));
  const std::uint32_t phys_before = fv_.mapping().Lookup(addr / nand_.GroupBytes());
  Write(addr, Pattern(floats, 100.0f));
  const std::uint32_t phys_after = fv_.mapping().Lookup(addr / nand_.GroupBytes());
  EXPECT_NE(phys_before, phys_after) << "log-structured: overwrite must relocate";
  EXPECT_EQ(fv_.mapping().ReverseLookup(phys_before), MappingTable::kUnmapped);
  EXPECT_EQ(Read(addr, floats), Pattern(floats, 100.0f));
}

TEST_F(FtlFixture, SequentialWritesFillSlotsAcrossPackages) {
  const std::uint64_t addr = fv_.AllocLogicalExtent(4 * nand_.GroupBytes());
  Write(addr, Pattern(4 * nand_.GroupBytes() / sizeof(float), 0.0f));
  // The four groups must land on four different packages (die pipelining).
  std::vector<int> packages;
  for (std::uint64_t lg = addr / nand_.GroupBytes(); lg < addr / nand_.GroupBytes() + 4;
       ++lg) {
    const std::uint32_t phys = fv_.mapping().Lookup(lg);
    packages.push_back(DecodeGroup(nand_, phys).package);
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_NE(std::find(packages.begin(), packages.end(), p), packages.end());
  }
}

TEST_F(FtlFixture, BlockSealingWritesSummaryFooter) {
  // Fill exactly one block group's data slots; the footer programs push the
  // program count to data_slots + 2.
  const std::uint32_t data_slots = fv_.DataSlotsPerBlockGroup();
  const std::uint64_t bytes = static_cast<std::uint64_t>(data_slots) * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(bytes);
  Write(addr, Pattern(64, 5.0f), bytes);
  // Next allocation triggers the lazy seal.
  const std::uint64_t addr2 = fv_.AllocLogicalExtent(nand_.GroupBytes());
  Write(addr2, Pattern(64, 6.0f), nand_.GroupBytes());
  EXPECT_EQ(backbone_.programs(), static_cast<std::uint64_t>(data_slots) + 2 + 1);
  EXPECT_EQ(fv_.blocks().used_count(), 1u);  // sealed block group in GC pool
}

TEST_F(FtlFixture, ChurnBeyondCapacityTriggersForegroundReclaimAndPreservesData) {
  // Overwrite a window repeatedly until the device must reclaim inline; the
  // live data must survive every relocation.
  const std::size_t window_groups = 6 * fv_.DataSlotsPerBlockGroup();
  const std::uint64_t window_bytes =
      static_cast<std::uint64_t>(window_groups) * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(window_bytes);
  const std::size_t floats = 256;
  std::vector<float> last;
  for (int pass = 0; pass < 10; ++pass) {
    last = Pattern(floats, static_cast<float>(pass) * 1000.0f);
    std::vector<float> full(window_bytes / sizeof(float), 0.0f);
    std::copy(last.begin(), last.end(), full.begin());
    Write(addr, full);
  }
  EXPECT_GT(fv_.foreground_reclaims(), 0u);
  const std::vector<float> out = Read(addr, floats);
  EXPECT_EQ(out, last);
}

// Whole groups move straight between flash and the kernel's buffer; only a
// partial last group goes through a bounce buffer. Both must behave as a
// zero-padded group even when the store hands out recycled chunks.
TEST_F(FtlFixture, PartialLastGroupIsZeroPaddedAndBoundedByFuncBytes) {
  const std::size_t group_floats = nand_.GroupBytes() / sizeof(float);
  // Fill four block groups with data, then overwrite them timing-only until
  // a reclaim erases them: their chunks become spares full of old data.
  const std::uint64_t window_bytes =
      4ULL * fv_.DataSlotsPerBlockGroup() * nand_.GroupBytes();
  const std::uint64_t window = fv_.AllocLogicalExtent(window_bytes);
  Write(window, Pattern(window_bytes / sizeof(float), 9.0f));
  for (int pass = 0; pass < 3; ++pass) {
    Write(window, {}, window_bytes);
  }
  ASSERT_GT(fv_.foreground_reclaims(), 0u);
  ASSERT_GT(backbone_.contents().spare_chunks(), 2u);

  // 1.5 groups of payload: the second group's tail must read back as zeros.
  const std::vector<float> payload = Pattern(group_floats * 3 / 2, 1.0f);
  const std::uint64_t addr = fv_.AllocLogicalExtent(2 * nand_.GroupBytes());
  Write(addr, payload);
  const std::vector<float> two = Read(addr, 2 * group_floats);
  for (std::size_t i = 0; i < two.size(); ++i) {
    ASSERT_EQ(two[i], i < payload.size() ? payload[i] : 0.0f) << "float " << i;
  }

  // A 100-float read fills exactly 400 bytes of a larger buffer.
  constexpr float kSentinel = -7.5f;
  std::vector<float> out(group_floats, kSentinel);
  Flashvisor::IoRequest req;
  req.type = Flashvisor::IoRequest::Type::kRead;
  req.flash_addr = addr;
  req.model_bytes = 100 * sizeof(float);
  req.func_data = out.data();
  req.func_bytes = 100 * sizeof(float);
  req.on_complete = [](Tick, IoStatus) {};
  fv_.SubmitIo(std::move(req));
  sim_.Run();
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < 100 ? payload[i] : kSentinel) << "float " << i;
  }
}

TEST_F(FtlFixture, LogicalExtentAllocatorAlignsToGroups) {
  const std::uint64_t a = fv_.AllocLogicalExtent(100);  // < one group
  const std::uint64_t b = fv_.AllocLogicalExtent(100);
  EXPECT_EQ(a % nand_.GroupBytes(), 0u);
  EXPECT_EQ(b - a, nand_.GroupBytes());
}

TEST_F(FtlFixture, WriteHoldsRangeLockUntilFlashDurable) {
  const std::size_t floats = nand_.GroupBytes() / sizeof(float);
  const std::uint64_t addr = fv_.AllocLogicalExtent(nand_.GroupBytes());
  Flashvisor::IoRequest req;
  std::vector<float> data = Pattern(floats, 2.0f);
  req.type = Flashvisor::IoRequest::Type::kWrite;
  req.flash_addr = addr;
  req.model_bytes = nand_.GroupBytes();
  req.func_data = data.data();
  req.func_bytes = data.size() * sizeof(float);
  Tick accept_time = 0;
  req.on_complete = [&](Tick t, IoStatus) { accept_time = t; };
  fv_.SubmitIo(std::move(req));
  // Run only to the accept event: the write lock must still be held (the
  // programs have not landed), so an overlapping read would block.
  sim_.RunUntil(accept_time == 0 ? 1 * kMs : accept_time);
  while (accept_time == 0 && sim_.Step()) {
  }
  EXPECT_TRUE(fv_.range_lock().Conflicts(addr / nand_.GroupBytes(),
                                         addr / nand_.GroupBytes(), LockMode::kRead));
  sim_.Run();
  EXPECT_FALSE(fv_.range_lock().Conflicts(addr / nand_.GroupBytes(),
                                          addr / nand_.GroupBytes(), LockMode::kRead));
}

TEST(WriteBuffer, SmallBufferStallsWriteAcceptance) {
  // With a one-group write buffer, the second write's acceptance must wait
  // for the first write's program to land (~tPROG), while a large buffer
  // accepts both at DDR3L speed.
  auto run_with_buffer = [](std::uint64_t buffer_bytes) {
    Simulator sim;
    NandConfig nand = TinyNand();
    FlashBackbone backbone(nand);
    Dram dram{DramConfig{}};
    Scratchpad scratchpad{ScratchpadConfig{}};
    FlashvisorConfig cfg;
    cfg.write_buffer_bytes = buffer_bytes;
    Flashvisor fv(&sim, &backbone, &dram, &scratchpad, cfg);
    Tick second_accept = 0;
    for (int i = 0; i < 2; ++i) {
      Flashvisor::IoRequest req;
      req.type = Flashvisor::IoRequest::Type::kWrite;
      req.flash_addr = fv.AllocLogicalExtent(nand.GroupBytes());
      req.model_bytes = nand.GroupBytes();
      req.on_complete = [&second_accept, i](Tick t, IoStatus) {
        if (i == 1) {
          second_accept = t;
        }
      };
      fv.SubmitIo(std::move(req));
    }
    sim.Run();
    return second_accept;
  };
  const Tick small = run_with_buffer(TinyNand().GroupBytes());
  const Tick large = run_with_buffer(1ULL << 30);
  EXPECT_GT(small, large);
  EXPECT_GT(small, NandConfig{}.program_latency / 2);
}

}  // namespace
}  // namespace fabacus

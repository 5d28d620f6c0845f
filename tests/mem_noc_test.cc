// Tests for the memory and interconnect substrates: sparse byte store, DRAM
// banking, scratchpad, crossbars, hardware message queues and the SRIO link.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/trace.h"
#include "src/mem/byte_store.h"
#include "src/mem/dram.h"
#include "src/mem/scratchpad.h"
#include "src/noc/crossbar.h"
#include "src/noc/message_queue.h"
#include "src/noc/srio_link.h"
#include "src/sim/simulator.h"
#include "src/sim/snapshot.h"

namespace fabacus {
namespace {

TEST(ByteStore, SparseReadsReturnZero) {
  ByteStore store(4096);
  std::vector<std::uint8_t> out(100, 0xFF);
  store.Read(1 << 20, out.data(), out.size());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(store.allocated_chunks(), 0u);
}

TEST(ByteStore, WriteReadAcrossChunkBoundary) {
  ByteStore store(64);
  std::vector<std::uint8_t> in(200);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i + 1);
  }
  store.Write(50, in.data(), in.size());
  std::vector<std::uint8_t> out(in.size());
  store.Read(50, out.data(), out.size());
  EXPECT_EQ(in, out);
  EXPECT_GT(store.allocated_chunks(), 2u);
}

TEST(ByteStore, EraseReleasesWholeChunks) {
  ByteStore store(64);
  std::vector<std::uint8_t> in(256, 0xAA);
  store.Write(0, in.data(), in.size());
  const std::size_t before = store.allocated_chunks();
  store.Erase(0, 256);
  EXPECT_LT(store.allocated_chunks(), before);
  std::vector<std::uint8_t> out(256, 0xFF);
  store.Read(0, out.data(), out.size());
  for (std::uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

// Whole-chunk Erase keeps the chunk as a spare; a later partial write into a
// recycled chunk must still read back zero everywhere it did not write.
TEST(ByteStore, RecycledChunkReadsZeroOutsidePartialWrite) {
  ByteStore store(64);
  const std::vector<std::uint8_t> junk(3 * 64, 0xAA);
  store.Write(0, junk.data(), junk.size());
  store.Erase(0, junk.size());
  EXPECT_EQ(store.allocated_chunks(), 0u);
  EXPECT_EQ(store.spare_chunks(), 3u);

  // Three partial writes, each landing in a recycled chunk: one in the
  // middle of chunk 5, one at the start of chunk 9, one across the 12/13
  // boundary (the tail of 12 and the head of 13).
  const std::vector<std::uint8_t> data(10, 0x55);
  const std::uint64_t offsets[] = {5 * 64 + 20, 9 * 64, 13 * 64 - 4};
  for (const std::uint64_t off : offsets) {
    store.Write(off, data.data(), data.size());
  }
  EXPECT_EQ(store.allocated_chunks(), 4u);
  EXPECT_EQ(store.spare_chunks(), 0u);
  std::vector<std::uint8_t> out(14 * 64, 0xFF);
  store.Read(0, out.data(), out.size());
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    bool written = false;
    for (const std::uint64_t off : offsets) {
      written = written || (i >= off && i < off + data.size());
    }
    ASSERT_EQ(out[i], written ? 0x55 : 0x00) << "byte " << i;
  }
}

TEST(ByteStore, WholeChunkWriteIntoRecycledChunkRoundTrips) {
  ByteStore store(64);
  const std::vector<std::uint8_t> junk(64, 0xAA);
  store.Write(0, junk.data(), junk.size());
  store.Erase(0, 64);
  ASSERT_EQ(store.spare_chunks(), 1u);
  std::vector<std::uint8_t> in(64);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  store.Write(2 * 64, in.data(), in.size());
  EXPECT_EQ(store.spare_chunks(), 0u);
  ASSERT_NE(store.ChunkData(2), nullptr);
  EXPECT_EQ(std::vector<std::uint8_t>(store.ChunkData(2), store.ChunkData(2) + 64), in);
  std::vector<std::uint8_t> out(64, 0);
  store.Read(2 * 64, out.data(), out.size());
  EXPECT_EQ(out, in);
  EXPECT_EQ(store.ChunkData(0), nullptr);
}

// Live plus spare chunks never exceed the earlier high-water mark of live
// chunks: erase/write cycles reuse memory instead of growing it.
TEST(ByteStore, RecyclingNeverGrowsPastTheHighWaterMark) {
  ByteStore store(64);
  const std::vector<std::uint8_t> data(4 * 64, 0x11);
  store.Write(0, data.data(), data.size());
  for (std::uint64_t round = 1; round <= 5; ++round) {
    store.Erase((round - 1) % 2 * 4 * 64, 4 * 64);
    store.Write(round % 2 * 4 * 64, data.data(), data.size());
    EXPECT_EQ(store.allocated_chunks(), 4u);
    EXPECT_EQ(store.allocated_chunks() + store.spare_chunks(), 4u);
  }
}

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// The checkpoint stream is chunk size, chunk count, then (index, length,
// bytes) per chunk in ascending index order, all integers little-endian.
// Built by hand here so an encoder change cannot move both sides at once.
TEST(ByteStore, SaveStateKeepsItsByteStream) {
  ByteStore store(16);
  const std::vector<std::uint8_t> a(16, 0xA5);
  store.Write(5 * 16, a.data(), a.size());         // chunk 5, whole
  const std::uint8_t b[3] = {1, 2, 3};
  store.Write(1 * 16 + 14, b, sizeof(b));          // tail of 1, head of 2
  store.Write(3 * 16 + 7, b, 1);                   // one byte of chunk 3
  store.Write(9 * 16, a.data(), a.size());
  store.Erase(9 * 16, 16);                         // released again

  std::vector<std::uint8_t> expected;
  PutU64(&expected, 16);
  PutU64(&expected, 4);
  auto chunk = [&](std::uint64_t idx, std::vector<std::uint8_t> bytes) {
    PutU64(&expected, idx);
    PutU64(&expected, bytes.size());
    expected.insert(expected.end(), bytes.begin(), bytes.end());
  };
  std::vector<std::uint8_t> c1(16, 0), c2(16, 0), c3(16, 0);
  c1[14] = 1;
  c1[15] = 2;
  c2[0] = 3;
  c3[7] = 1;
  chunk(1, c1);
  chunk(2, c2);
  chunk(3, c3);
  chunk(5, a);

  StateWriter w;
  SaveTo(store, w);
  EXPECT_EQ(w.buffer(), expected);

  ByteStore restored(16);
  StateReader r(w.buffer());
  LoadFrom(restored, r);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.AtEnd());
  StateWriter again;
  SaveTo(restored, again);
  EXPECT_EQ(again.buffer(), expected);
}

TEST(Dram, BulkAccessUsesAggregateBandwidth) {
  Dram dram(DramConfig{});
  const Tick done = dram.BulkAccess(0, 64e6);  // 64 MB at 6.4 GB/s = 10 ms
  EXPECT_NEAR(static_cast<double>(done), 10e6, 0.5e6);
}

TEST(Dram, AddressInterleavingSpreadsBanks) {
  Dram dram(DramConfig{});
  // Two accesses to different 4 KB-aligned regions go to different banks and
  // do not serialize.
  const Tick a = dram.Access(0, 0, 1e6);
  const Tick b = dram.Access(0, 4096, 1e6);
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b), 1.0);
  // Same region: serialized.
  const Tick c = dram.Access(0, 0, 1e6);
  EXPECT_GT(c, a);
}

TEST(Scratchpad, AccessFasterThanDram) {
  Scratchpad spm(ScratchpadConfig{});
  Dram dram(DramConfig{});
  EXPECT_LT(spm.Access(0, 1e6), dram.BulkAccess(0, 1e6));
}

TEST(Crossbar, TransfersSerializeOnSharedPort) {
  CrossbarConfig cfg{.name = "x", .ports = 4, .port_gb_per_s = 1.0, .fabric_gb_per_s = 4.0,
                     .hop_latency = 0};
  Crossbar xbar(cfg);
  const Tick a = xbar.Transfer(0, 0, 3, 1000);
  const Tick b = xbar.Transfer(0, 1, 3, 1000);  // same destination port
  EXPECT_GT(b, a);
}

TEST(Crossbar, FabricCapsAggregateThroughput) {
  CrossbarConfig cfg{.name = "x", .ports = 8, .port_gb_per_s = 10.0, .fabric_gb_per_s = 1.0,
                     .hop_latency = 0};
  Crossbar xbar(cfg);
  Tick last = 0;
  for (int i = 0; i < 4; ++i) {
    last = std::max(last, xbar.Transfer(0, i, 7 - i, 1000));
  }
  // 4 KB through a 1 GB/s fabric takes >= 4 us even with idle ports.
  EXPECT_GE(last, 4000u);
}

TEST(SrioLink, BandwidthMatchesLaneConfiguration) {
  SrioLink link;
  // 4 lanes x 5 Gbps = 2.5 GB/s.
  EXPECT_NEAR(link.gb_per_s(), 2.5, 0.01);
  const Tick done = link.Transfer(0, 25e6);
  EXPECT_NEAR(static_cast<double>(done), 10e6, 0.5e6);  // 25 MB in ~10 ms
}

TEST(MessageQueue, DeliversSeriallyInOrder) {
  Simulator sim;
  MessageQueue<int> q(&sim, "q", /*delivery_latency=*/100);
  std::vector<int> seen;
  q.set_sink([&](int v, MessageQueue<int>::Done done) {
    seen.push_back(v);
    // Each message takes 1 us of consumer time.
    done(sim.Now() + 1000);
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TrySend(i));
  }
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.delivered(), 5u);
  // Serial consumer: total time = 5 * (latency + service).
  EXPECT_EQ(sim.Now(), 5u * 1100u);
}

TEST(MessageQueue, BackpressuresWhenFull) {
  Simulator sim;
  MessageQueue<int> q(&sim, "q", 10, /*capacity=*/2);
  q.set_sink([&](int, MessageQueue<int>::Done done) { done(sim.Now()); });
  EXPECT_TRUE(q.TrySend(1));
  EXPECT_TRUE(q.TrySend(2));
  EXPECT_TRUE(q.TrySend(3));   // one in flight, two queued? depth check:
  // capacity counts queued messages; the first was popped for delivery.
  EXPECT_FALSE(q.TrySend(4));  // full now
  EXPECT_EQ(q.rejected(), 1u);
  sim.Run();
  EXPECT_TRUE(q.TrySend(5));
}

}  // namespace
}  // namespace fabacus

// Tests for the I/O trace parser and Flashvisor replay driver.
#include <gtest/gtest.h>

#include "src/host/io_trace.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

TEST(IoTraceParser, ParsesWellFormedTrace) {
  const std::string text =
      "# issue_us op addr bytes\n"
      "0 W 0 65536\n"
      "100 R 0 65536\n"
      "\n"
      "250.5 R 131072 4096  # trailing comment\n";
  std::vector<IoTraceEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseIoTrace(text, &entries, &error)) << error;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].issue, 0u);
  EXPECT_TRUE(entries[0].is_write);
  EXPECT_EQ(entries[1].issue, 100000u);  // 100 us in ns
  EXPECT_FALSE(entries[1].is_write);
  EXPECT_EQ(entries[2].addr, 131072u);
  EXPECT_EQ(entries[2].bytes, 4096u);
}

TEST(IoTraceParser, RejectsMalformedLines) {
  std::vector<IoTraceEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseIoTrace("5 X 0 100\n", &entries, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseIoTrace("0 R 12\n", &entries, &error));  // missing bytes
}

TEST(IoTraceParser, SkipsCommentsAndBlankLines) {
  std::vector<IoTraceEntry> entries;
  std::string error;
  ASSERT_TRUE(ParseIoTrace("# nothing\n\n   \n", &entries, &error));
  EXPECT_TRUE(entries.empty());
}

TEST(IoTraceSynth, DeterministicAndShaped) {
  const auto a = SynthesizeIoTrace(100, 65536, 0.3, 1 << 24, 1000, 9);
  const auto b = SynthesizeIoTrace(100, 65536, 0.3, 1 << 24, 1000, 9);
  ASSERT_EQ(a.size(), 100u);
  int writes = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].issue, b[i].issue);
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
    EXPECT_LT(a[i].addr, 1u << 24);
    writes += a[i].is_write ? 1 : 0;
  }
  EXPECT_GT(writes, 10);
  EXPECT_LT(writes, 60);
}

TEST(IoTraceReplay, CollectsLatenciesAndCounts) {
  Simulator sim;
  NandConfig nand = TinyNand();
  FlashBackbone backbone(nand);
  Dram dram{DramConfig{}};
  Scratchpad scratchpad{ScratchpadConfig{}};
  Flashvisor fv(&sim, &backbone, &dram, &scratchpad);

  const auto trace =
      SynthesizeIoTrace(50, nand.GroupBytes(), 0.5, 8 * nand.GroupBytes(), 50 * kUs, 4);
  const IoReplayResult r = ReplayIoTrace(&sim, &fv, trace);
  EXPECT_EQ(r.read_latency_us.size() + r.write_latency_us.size(), 50u);
  EXPECT_GT(r.makespan, 0u);
  if (!r.write_latency_us.empty()) {
    EXPECT_GT(SummarizeSamples(r.write_latency_us).mean, 0.0);
  }
  if (!r.read_latency_us.empty()) {
    EXPECT_GE(SummarizeSamples(r.read_latency_us).min, 0.0);
  }
}

TEST(IoTraceReplay, WriteThenReadLatencyOrdering) {
  // Writes complete at DDR3L-buffer speed; a read of freshly-written data
  // waits on the flash programs via the range lock, so its latency is
  // comparable to tPROG.
  Simulator sim;
  NandConfig nand = TinyNand();
  FlashBackbone backbone(nand);
  Dram dram{DramConfig{}};
  Scratchpad scratchpad{ScratchpadConfig{}};
  Flashvisor fv(&sim, &backbone, &dram, &scratchpad);

  std::vector<IoTraceEntry> trace = {
      {0, true, 0, nand.GroupBytes()},
      {1 * kUs, false, 0, nand.GroupBytes()},  // immediately read it back
  };
  const IoReplayResult r = ReplayIoTrace(&sim, &fv, trace);
  ASSERT_EQ(r.read_latency_us.size(), 1u);
  ASSERT_EQ(r.write_latency_us.size(), 1u);
  EXPECT_GT(r.read_latency_us[0], TicksToUs(nand.program_latency) * 0.5);
  EXPECT_LT(r.write_latency_us[0], TicksToUs(nand.program_latency));
}

}  // namespace
}  // namespace fabacus

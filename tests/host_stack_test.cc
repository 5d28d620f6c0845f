// Tests for the host substrate: NVMe SSD device model and the storage-stack
// cost model (request splitting, copies, marshalling), plus data integrity
// through the file namespace.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/host/nvme_ssd.h"
#include "src/host/storage_stack.h"

namespace fabacus {
namespace {

TEST(NvmeSsd, FileDataRoundTrips) {
  NvmeSsd ssd;
  std::vector<std::uint8_t> in(10000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i * 13);
  }
  ASSERT_TRUE(ssd.CreateFile("f", in.size()));
  ssd.Write(0, "f", 0, in.size(), in.data());
  std::vector<std::uint8_t> out(in.size(), 0);
  ssd.Read(0, "f", 0, out.size(), out.data());
  EXPECT_EQ(in, out);
}

TEST(NvmeSsd, ReadTimingMatchesBandwidthPlusLatency) {
  NvmeSsd ssd;
  ASSERT_TRUE(ssd.CreateFile("f", 24'000'000));
  const Tick done = ssd.Read(0, "f", 0, 24'000'000, nullptr);
  // 24 MB at 2.4 GB/s = 10 ms, plus 100 us command latency.
  EXPECT_NEAR(static_cast<double>(done), 10.1e6, 0.2e6);
}

TEST(NvmeSsd, WritesSlowerThanReads) {
  NvmeSsd ssd;
  ASSERT_TRUE(ssd.CreateFile("a", 12'000'000));
  ASSERT_TRUE(ssd.CreateFile("b", 12'000'000));
  NvmeSsd ssd2;
  ASSERT_TRUE(ssd2.CreateFile("a", 12'000'000));
  const Tick r = ssd2.Read(0, "a", 0, 12'000'000, nullptr);
  const Tick w = ssd.Write(0, "a", 0, 12'000'000, nullptr);
  EXPECT_GT(w, r);
}

TEST(NvmeSsd, InstallFilePopulatesPrefix) {
  NvmeSsd ssd;
  std::vector<std::uint8_t> data(100, 0x5A);
  ssd.InstallFile("f", 1000, data.data(), data.size());
  std::vector<std::uint8_t> out(1000, 0xFF);
  ssd.Read(0, "f", 0, 1000, out.data());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], 0x5A);
  }
  for (std::size_t i = 100; i < 1000; ++i) {
    EXPECT_EQ(out[i], 0);
  }
}

TEST(NvmeSsd, FileStoreHoldsOnlyThePagesItsDataTouches) {
  // As SimdSystem stages them: files at model-size offsets, each carrying a
  // functional prefix — a 3 KiB vector in a 1.6 MB file and a 2.25 MiB
  // operand in a 36 MiB file — then a 3 KiB output written into a third.
  // Every file starts on a page, so each prefix costs its own pages.
  constexpr std::uint64_t kPage = 4096;
  struct File {
    std::string name;
    std::uint64_t bytes;
    std::uint64_t prefix;
  };
  const std::vector<File> files = {{"vec", 400 * kPage, 3 << 10},
                                   {"operand", 36ULL << 20, 2304ULL << 10},
                                   {"out", 1ULL << 20, 3 << 10}};
  NvmeSsd ssd;
  std::uint64_t touched = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    std::vector<std::uint8_t> data(files[f].prefix);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + f + 1);
    }
    if (files[f].name == "out") {
      ASSERT_TRUE(ssd.CreateFile(files[f].name, files[f].bytes));
      ssd.Write(0, files[f].name, 0, data.size(), data.data());
    } else {
      ssd.InstallFile(files[f].name, files[f].bytes, data.data(), data.size());
    }
    touched += (files[f].prefix + kPage - 1) / kPage * kPage;
  }
  EXPECT_EQ(ssd.contents().allocated_chunks() * ssd.contents().chunk_size(), touched);

  for (std::size_t f = 0; f < files.size(); ++f) {
    std::vector<std::uint8_t> out(files[f].bytes, 0xFF);
    ssd.Read(0, files[f].name, 0, out.size(), out.data());
    for (std::size_t i = 0; i < files[f].prefix; ++i) {
      ASSERT_EQ(out[i], static_cast<std::uint8_t>(i * 7 + f + 1)) << files[f].name << " @" << i;
    }
    EXPECT_TRUE(std::all_of(out.begin() + static_cast<std::ptrdiff_t>(files[f].prefix),
                            out.end(), [](std::uint8_t b) { return b == 0; }))
        << files[f].name;
  }
}

TEST(NvmeSsd, ReadPastEofDies) {
  NvmeSsd ssd;
  ASSERT_TRUE(ssd.CreateFile("f", 100));
  EXPECT_DEATH(ssd.Read(0, "f", 50, 100, nullptr), "past EOF");
}

class StackFixture : public ::testing::Test {
 protected:
  StackFixture() : cpu_("host"), stack_(&cpu_, &ssd_, &trace_) {
    ssd_.CreateFile("data", 64 << 20);
  }
  SerialCore cpu_;
  NvmeSsd ssd_;
  RunTrace trace_;
  StorageStack stack_;
};

TEST_F(StackFixture, ReadFileCostsMoreThanRawDevice) {
  const std::uint64_t bytes = 16 << 20;
  const Tick stack_done = stack_.ReadFile(0, "data", bytes, nullptr);
  NvmeSsd raw;
  raw.CreateFile("data", bytes);
  const Tick device_done = raw.Read(0, "data", 0, bytes, nullptr);
  // The stack adds syscalls + two memcpy passes on top of the device time.
  EXPECT_GT(stack_done, device_done + static_cast<Tick>(bytes / 12.8));
}

TEST_F(StackFixture, PerRequestOverheadScalesWithRequestCount) {
  // Same volume in many small files costs more syscalls than one big read;
  // approximate by comparing 1 MB granularity built into the stack: the CPU
  // busy time must include one syscall per MB.
  const std::uint64_t bytes = 8 << 20;
  stack_.ReadFile(0, "data", bytes, nullptr);
  const double cpu_s = stack_.host_cpu_busy_seconds(1 * kSec);
  const double syscall_s = 8 * TicksToSeconds(StorageStackConfig{}.syscall_overhead);
  EXPECT_GT(cpu_s, syscall_s);
}

TEST_F(StackFixture, TraceRecordsStackAndDeviceIntervals) {
  stack_.ReadFile(0, "data", 4 << 20, nullptr);
  EXPECT_GT(trace_.UnionTime(TraceTag::kHostStack), 0u);
  EXPECT_GT(trace_.UnionTime(TraceTag::kSsdOp), 0u);
}

TEST_F(StackFixture, WriteFileMirrorsReadPath) {
  std::vector<std::uint8_t> payload(1 << 20, 0x42);
  const Tick done = stack_.WriteFile(0, "data", payload.size(), payload.data());
  EXPECT_GT(done, 0u);
  std::vector<std::uint8_t> out(payload.size());
  ssd_.Read(done, "data", 0, out.size(), out.data());
  EXPECT_EQ(out, payload);
}

TEST_F(StackFixture, OpenFileChargesPrologue) {
  const Tick t = stack_.OpenFile(0);
  EXPECT_EQ(t, StorageStackConfig{}.file_open_cost);
}

}  // namespace
}  // namespace fabacus

// External NVMe SSD model (Intel SSD 750-class, the paper's SIMD baseline
// storage). Device-level behaviour only: a command queue with per-command
// latency and direction-dependent bandwidth, plus a byte-accurate file
// namespace so workload data really round-trips through the device.
#ifndef SRC_HOST_NVME_SSD_H_
#define SRC_HOST_NVME_SSD_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/mem/byte_store.h"
#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

struct NvmeConfig {
  double read_gb_per_s = 2.4;   // sequential read
  double write_gb_per_s = 1.2;  // sequential write
  Tick command_latency = 100 * kUs;
  std::uint64_t capacity_bytes = 400ULL << 30;
};

class NvmeSsd {
 public:
  explicit NvmeSsd(const NvmeConfig& config = NvmeConfig{});

  // Creates (or truncates) a file of `bytes`; returns false when full.
  bool CreateFile(const std::string& name, std::uint64_t bytes);

  // Pre-populates a file without consuming device time (dataset staging
  // before an experiment starts). The first `data_bytes` come from `data`;
  // the rest of the file is zero.
  void InstallFile(const std::string& name, std::uint64_t file_bytes, const void* data,
                   std::uint64_t data_bytes);

  // Device-time read/write of a file range. `data` may be null (timing only).
  // Returns the command completion time.
  Tick Read(Tick now, const std::string& name, std::uint64_t offset, std::uint64_t bytes,
            void* data);
  Tick Write(Tick now, const std::string& name, std::uint64_t offset, std::uint64_t bytes,
             const void* data);

  const NvmeConfig& config() const { return config_; }
  // The sparse store behind the files (for memory-footprint assertions).
  const ByteStore& contents() const { return data_; }
  double bytes_read() const { return bytes_read_; }
  double bytes_written() const { return bytes_written_; }
  std::uint64_t commands() const { return channel_.transfers(); }
  Tick BusyTime(Tick now) const { return channel_.BusyTime(now); }

  // Registers command counter plus byte/busy gauges under `prefix`
  // (e.g. "ssd").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
    reg->RegisterCounter(prefix + "/commands", &channel_.transfers_counter());
    reg->RegisterGauge(prefix + "/bytes_read", [this](Tick) { return bytes_read_; });
    reg->RegisterGauge(prefix + "/bytes_written", [this](Tick) { return bytes_written_; });
    reg->RegisterGauge(prefix + "/busy_ns",
                       [this](Tick now) { return static_cast<double>(BusyTime(now)); });
  }

 private:
  struct FileExtent {
    std::uint64_t base;
    std::uint64_t bytes;
  };
  const FileExtent& Extent(const std::string& name) const;

  NvmeConfig config_;
  BandwidthResource channel_;
  ByteStore data_;
  std::unordered_map<std::string, FileExtent> files_;
  std::uint64_t alloc_cursor_ = 0;
  double bytes_read_ = 0.0;
  double bytes_written_ = 0.0;
};

}  // namespace fabacus

#endif  // SRC_HOST_NVME_SSD_H_

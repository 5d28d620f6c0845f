// Scratchpad SRAM. Table 1: 4 MB over 8 banks at 500 MHz, 16 GB/s, serving
// administrative traffic (Flashvisor's mapping table, queue entries) "as fast
// as an L2 cache". Only the timing is modelled here: the mapping table keeps
// its entries itself (MappingTable), sized to fit this capacity.
#ifndef SRC_MEM_SCRATCHPAD_H_
#define SRC_MEM_SCRATCHPAD_H_

#include <cstdint>

#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace fabacus {

struct ScratchpadConfig {
  std::uint64_t capacity_bytes = 4ULL << 20;  // 4 MB
  int banks = 8;
  double total_gb_per_s = 16.0;
  Tick access_latency = 4;  // ns (2 cycles @ 500 MHz)
};

class Scratchpad : public Snapshottable {
 public:
  explicit Scratchpad(const ScratchpadConfig& config);

  // Timing-only access (e.g., a mapping-table lookup touching `bytes`).
  Tick Access(Tick now, double bytes);

  const ScratchpadConfig& config() const { return config_; }
  Tick BusyTime(Tick now) const { return port_.BusyTime(now); }
  double Utilization(Tick now) const { return port_.Utilization(now); }
  double bytes_moved() const { return port_.bytes_moved(); }

  // Registers access counter plus bytes/busy gauges under `prefix`
  // (e.g. "scratchpad").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
    reg->RegisterCounter(prefix + "/accesses", &port_.transfers_counter());
    reg->RegisterGauge(prefix + "/bytes_moved", [this](Tick) { return bytes_moved(); });
    reg->RegisterGauge(prefix + "/busy_ns",
                       [this](Tick now) { return static_cast<double>(BusyTime(now)); });
  }

  // Snapshottable: the port's timing state.
  std::string StateName() const override { return "scratchpad"; }
  int StateVersion() const override { return 2; }  // v2: no byte array
  void Persist(StateIO& io) override { port_.Persist(io); }

 private:
  ScratchpadConfig config_;
  BandwidthResource port_;
};

}  // namespace fabacus

#endif  // SRC_MEM_SCRATCHPAD_H_

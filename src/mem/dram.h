// DDR3L model. Table 1: 1 GB, 8 banks, 800 MHz, 6.4 GB/s aggregate, 0.7 W
// typical. Requests are striped over banks by address; each bank is a
// bandwidth-limited FCFS resource so concurrent kernels contend realistically.
#ifndef SRC_MEM_DRAM_H_
#define SRC_MEM_DRAM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

struct DramConfig {
  std::string name = "ddr3l";
  std::uint64_t capacity_bytes = 1ULL << 30;  // 1 GB
  int banks = 8;
  double total_gb_per_s = 6.4;
  Tick access_latency = 60;  // ns, CAS + controller
};

class Dram : public Snapshottable {
 public:
  explicit Dram(const DramConfig& config);

  // Reserves bandwidth for `bytes` starting at address `addr` (bank selection
  // by address interleave). Returns the completion time.
  Tick Access(Tick now, std::uint64_t addr, double bytes);

  // Spreads a bulk transfer across all banks (DMA-style sequential access).
  Tick BulkAccess(Tick now, double bytes);

  const DramConfig& config() const { return config_; }
  double bytes_moved() const;
  std::uint64_t accesses() const { return accesses_.value(); }
  Tick BusyTime(Tick now) const;
  double Utilization(Tick now) const;

  // Registers access counter plus bytes/busy/utilization gauges under
  // `prefix` (e.g. "dram").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const;

  // Snapshottable: per-bank timing horizons + the access counter. DRAM
  // contents are scratch kernel working sets, not persistent state — only
  // the timing model is restored.
  std::string StateName() const override { return "dram"; }
  void Persist(StateIO& io) override {
    if (!io.Count(banks_.size(), "dram bank count")) {
      return;
    }
    for (auto& bank : banks_) {
      bank->Persist(io);
    }
    accesses_.Persist(io);
  }

 private:
  DramConfig config_;
  std::vector<std::unique_ptr<BandwidthResource>> banks_;
  std::uint64_t interleave_granule_ = 4096;
  Counter accesses_;
};

}  // namespace fabacus

#endif  // SRC_MEM_DRAM_H_

// Partial crossbar network (paper §2.2, Table 1):
//  * tier-1 streaming crossbar, 256 lanes @ 500 MHz, 16 GB/s — LWPs <-> memory
//  * tier-2 simplified crossbars, 128 lanes @ 333 MHz, 5.2 GB/s — AMC/PCIe side
// A transfer reserves its source and destination ports plus the shared fabric;
// the fabric itself has an aggregate bandwidth several ports can saturate.
#ifndef SRC_NOC_CROSSBAR_H_
#define SRC_NOC_CROSSBAR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/sim/metrics.h"
#include "src/sim/resource.h"
#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace fabacus {

struct CrossbarConfig {
  std::string name = "xbar";
  int ports = 8;
  double port_gb_per_s = 16.0;     // per-port peak
  double fabric_gb_per_s = 16.0;   // aggregate fabric ceiling
  Tick hop_latency = 10;           // ns per traversal
};

class Crossbar : public Snapshottable {
 public:
  explicit Crossbar(const CrossbarConfig& config);

  // Moves `bytes` from `src_port` to `dst_port`; returns delivery time.
  Tick Transfer(Tick now, int src_port, int dst_port, double bytes);

  const CrossbarConfig& config() const { return config_; }
  double bytes_moved() const { return fabric_.bytes_moved(); }
  double Utilization(Tick now) const { return fabric_.Utilization(now); }
  Tick BusyTime(Tick now) const { return fabric_.BusyTime(now); }

  // Registers fabric transfer counter plus bytes/busy/utilization gauges
  // under `prefix` (e.g. "noc/tier1").
  void RegisterMetrics(MetricsRegistry* reg, const std::string& prefix) const {
    reg->RegisterCounter(prefix + "/transfers", &fabric_.transfers_counter());
    reg->RegisterGauge(prefix + "/bytes_moved", [this](Tick) { return bytes_moved(); });
    reg->RegisterGauge(prefix + "/busy_ns",
                       [this](Tick now) { return static_cast<double>(BusyTime(now)); });
    reg->RegisterGauge(prefix + "/utilization",
                       [this](Tick now) { return Utilization(now); });
  }

  // Snapshottable: fabric + per-port timing horizons.
  std::string StateName() const override { return "noc/" + config_.name; }
  void Persist(StateIO& io) override {
    fabric_.Persist(io);
    if (!io.Count(ports_.size(), "crossbar port count")) {
      return;
    }
    for (auto& port : ports_) {
      port->Persist(io);
    }
  }

 private:
  CrossbarConfig config_;
  BandwidthResource fabric_;
  std::vector<std::unique_ptr<BandwidthResource>> ports_;
};

}  // namespace fabacus

#endif  // SRC_NOC_CROSSBAR_H_

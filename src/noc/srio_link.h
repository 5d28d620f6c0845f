// Serial RapidIO lanes connecting the tier-2 AMC to the flash backbone's FMC
// (paper §2.2): four lanes at 5 Gbps each, i.e. 2.5 GB/s raw, ~2 GB/s after
// 8b/10b-style encoding overhead.
#ifndef SRC_NOC_SRIO_LINK_H_
#define SRC_NOC_SRIO_LINK_H_

#include "src/sim/resource.h"
#include "src/sim/time.h"

namespace fabacus {

struct SrioConfig {
  int lanes = 4;
  double gbps_per_lane = 5.0;   // raw line rate
  double encoding_efficiency = 1.0;  // payload efficiency after framing
  Tick latency = 200;           // ns, serdes + FMC hop
};

class SrioLink {
 public:
  explicit SrioLink(const SrioConfig& config = SrioConfig{})
      : config_(config),
        link_("srio",
              config.lanes * config.gbps_per_lane / 8.0 * config.encoding_efficiency,
              config.latency) {}

  Tick Transfer(Tick now, double bytes) { return link_.Reserve(now, bytes).end; }

  const SrioConfig& config() const { return config_; }

  double gb_per_s() const { return link_.gb_per_s(); }
  double bytes_moved() const { return link_.bytes_moved(); }
  Tick BusyTime(Tick now) const { return link_.BusyTime(now); }
  double Utilization(Tick now) const { return link_.Utilization(now); }

  // Checkpoint/restore of the link's timing state.
  void Persist(StateIO& io) { link_.Persist(io); }

 private:
  SrioConfig config_;
  BandwidthResource link_;
};

}  // namespace fabacus

#endif  // SRC_NOC_SRIO_LINK_H_

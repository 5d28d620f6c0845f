// BandwidthResource models any serially-shared transfer resource (a DRAM
// channel, a crossbar port, a PCIe link, a flash channel bus): transfers are
// serviced FCFS at a fixed bandwidth after a fixed per-transfer latency.
//
// Reserve() returns the (start, end) interval of the transfer so callers can
// schedule completion events and account busy time / energy.
#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <algorithm>
#include <string>

#include "src/sim/log.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

class BandwidthResource {
 public:
  struct Reservation {
    Tick start;  // when the transfer begins moving data
    Tick end;    // when the last byte arrives
  };

  BandwidthResource(std::string name, double gb_per_s, Tick latency = 0)
      : name_(std::move(name)), gb_per_s_(gb_per_s), latency_(latency) {
    FAB_CHECK_GT(gb_per_s_, 0.0) << name_;
  }

  // Reserves the resource for `bytes` starting no earlier than `now`.
  Reservation Reserve(Tick now, double bytes) {
    const Tick start = std::max(now, next_free_);
    const Tick duration = latency_ + BytesAtGBps(bytes, gb_per_s_);
    const Tick end = start + duration;
    next_free_ = end;
    busy_.AddInterval(start, end);
    bytes_moved_ += bytes;
    transfers_.Add();
    return Reservation{start, end};
  }

  // Earliest time a new transfer could start.
  Tick next_free() const { return next_free_; }

  const std::string& name() const { return name_; }
  double gb_per_s() const { return gb_per_s_; }
  Tick latency() const { return latency_; }
  double bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_.value(); }
  const Counter& transfers_counter() const { return transfers_; }
  Tick BusyTime(Tick now) const { return busy_.BusyTime(now); }
  double Utilization(Tick now) const { return busy_.Utilization(now); }

  // Checkpoint/restore of the dynamic state (the name/bandwidth/latency
  // identity comes from the config that rebuilt this resource).
  void Persist(StateIO& io) {
    io.U64(next_free_);
    busy_.Persist(io);
    io.F64(bytes_moved_);
    transfers_.Persist(io);
  }

 private:
  std::string name_;
  double gb_per_s_;
  Tick latency_;
  Tick next_free_ = 0;
  BusyTracker busy_;
  double bytes_moved_ = 0.0;
  Counter transfers_;
};

}  // namespace fabacus

#endif  // SRC_SIM_RESOURCE_H_

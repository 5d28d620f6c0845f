// A single-threaded control processor (one LWP) modelled as a serial FCFS
// server: work items occupy the core back to back. Flashvisor and Storengine
// each run on one of these — the serialization is exactly the IPC/scheduling
// overhead the paper charges against fine-grained scheduling.
#ifndef SRC_CORE_SERIAL_CORE_H_
#define SRC_CORE_SERIAL_CORE_H_

#include <algorithm>
#include <string>

#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

class SerialCore {
 public:
  explicit SerialCore(std::string name) : name_(std::move(name)) {}

  // Occupies the core for `duration` starting no earlier than `now`; returns
  // the interval actually used.
  struct Interval {
    Tick start;
    Tick end;
  };
  Interval Occupy(Tick now, Tick duration) {
    const Tick start = std::max(now, next_free_);
    const Tick end = start + duration;
    next_free_ = end;
    busy_.AddInterval(start, end);
    return Interval{start, end};
  }

  Tick next_free() const { return next_free_; }
  Tick BusyTime(Tick now) const { return busy_.BusyTime(now); }
  double Utilization(Tick now) const { return busy_.Utilization(now); }
  const std::string& name() const { return name_; }

  // Checkpoint/restore of the core's occupancy horizon and busy accounting.
  void Persist(StateIO& io) {
    io.U64(next_free_);
    busy_.Persist(io);
  }

 private:
  std::string name_;
  Tick next_free_ = 0;
  BusyTracker busy_;
};

}  // namespace fabacus

#endif  // SRC_CORE_SERIAL_CORE_H_

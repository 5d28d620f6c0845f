#include "src/sim/simulator.h"

#include <utility>

#include "src/sim/log.h"

namespace fabacus {

void Simulator::ScheduleAt(Tick when, EventQueue::Callback fn) {
  FAB_CHECK_GE(when, now_) << "event scheduled in the past";
  queue_.Push(when, std::move(fn));
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  Tick when = 0;
  EventQueue::Callback fn = queue_.Pop(&when);
  FAB_CHECK_GE(when, now_);
  now_ = when;
  ++events_executed_;
  fn();
  return true;
}

Tick Simulator::Run() {
  while (!queue_.empty() && !queue_.OnlyDaemonsLeft()) {
    Step();
  }
  return now_;
}

Tick Simulator::RunUntil(Tick deadline) {
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

}  // namespace fabacus

// Hardware message queue (paper: KeyStone Multicore Navigator-style queues
// attached to the crossbar). LWPs and Flashvisor communicate exclusively over
// these queues; each message pays a fixed fabric latency, and the queue is
// bounded — a full queue back-pressures the sender, which is one of the IPC
// overheads the paper charges against fine-grained (IntraO3) scheduling.
#ifndef SRC_NOC_MESSAGE_QUEUE_H_
#define SRC_NOC_MESSAGE_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/sim/log.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace fabacus {

// One-directional queue carrying messages of type T to a single consumer.
// The consumer drains messages serially: the sink callback is invoked once
// per message, and the next message is delivered only after the consumer
// reports it is done (via the Done handle), modelling a single control core.
template <typename T>
class MessageQueue {
 public:
  // Called for each delivered message. The consumer must invoke `done(t)`
  // exactly once, at the simulation time `t` when it finished handling the
  // message; the queue then delivers the next message.
  using Done = std::function<void(Tick)>;
  using Sink = std::function<void(T, Done)>;

  MessageQueue(Simulator* sim, std::string name, Tick delivery_latency = 100,
               std::size_t capacity = 4096)
      : sim_(sim),
        name_(std::move(name)),
        delivery_latency_(delivery_latency),
        capacity_(capacity) {}

  void set_sink(Sink sink) { sink_ = std::move(sink); }

  // Enqueues a message. Returns false when the queue is full (the caller is
  // expected to retry; the schedulers treat this as back-pressure).
  bool TrySend(T msg) {
    if (pending_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    pending_.push_back(std::move(msg));
    ++sent_;
    MaybeDeliver();
    return true;
  }

  // Express-lane enqueue: the message goes ahead of every queued normal-lane
  // message (Navigator queues support multiple priority levels). Used by the
  // tenant QoS layer for latency-class I/O (docs/QOS.md); express messages
  // among themselves stay FIFO.
  bool TrySendPriority(T msg) {
    if (pending_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(express_), std::move(msg));
    ++express_;
    ++sent_;
    MaybeDeliver();
    return true;
  }

  // Drops queued messages and the busy latch. For crash recovery: after
  // Simulator::Halt() the scheduled redelivery event is gone, so `busy_`
  // would otherwise stick forever and wedge the queue.
  void Reset() {
    pending_.clear();
    express_ = 0;
    busy_ = false;
  }

  std::size_t depth() const { return pending_.size(); }
  // True when no message is queued or being delivered. Snapshots require the
  // queue to be idle: messages carry closures, which cannot be serialized.
  bool Idle() const { return pending_.empty() && !busy_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t delivered() const { return delivered_; }
  const std::string& name() const { return name_; }

  // Checkpoint/restore of the queue's counters. The queue itself must be
  // idle (see Idle()) — enforced by the caller before snapshotting.
  void Persist(StateIO& io) {
    if (io.saving()) {
      FAB_CHECK(Idle()) << "message queue " << name_ << " not idle at snapshot";
    } else {
      pending_.clear();
      busy_ = false;
    }
    io.U64(sent_);
    io.U64(rejected_);
    io.U64(delivered_);
  }

 private:
  void MaybeDeliver() {
    if (busy_ || pending_.empty()) {
      return;
    }
    busy_ = true;
    T msg = std::move(pending_.front());
    pending_.pop_front();
    if (express_ > 0) {
      --express_;
    }
    sim_->Schedule(delivery_latency_, [this, msg = std::move(msg)]() mutable {
      FAB_CHECK(sink_) << "message queue " << name_ << " has no sink";
      ++delivered_;
      sink_(std::move(msg), [this](Tick when) {
        sim_->ScheduleAt(when, [this]() {
          busy_ = false;
          MaybeDeliver();
        });
      });
    });
  }

  Simulator* sim_;
  std::string name_;
  Tick delivery_latency_;
  std::size_t capacity_;
  Sink sink_;
  std::deque<T> pending_;
  std::size_t express_ = 0;  // prefix of pending_ holding express messages
  bool busy_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace fabacus

#endif  // SRC_NOC_MESSAGE_QUEUE_H_

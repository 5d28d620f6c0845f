// Cross-thread lifetime tests for EventFn's slab allocator. A partitioned
// fleet run builds shard simulators on the caller thread, serves them on
// SweepRunner workers (which execute, and so destroy, events the caller's
// pool allocated) and destroys them back on the caller, after the worker
// threads have exited with their own allocations still pending. Remote frees
// route back to the owning pool's free list; the last outstanding chunk keeps
// a dead thread's pool alive.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"

namespace fabacus {
namespace {

// A capture fat enough (and non-trivially-copyable enough) to force the slab
// path — EventFn inlines only trivially-copyable captures up to 32 bytes.
struct FatPayload {
  std::vector<std::uint64_t> data;
};

EventFn MakeSlabBacked(std::uint64_t tag, std::uint64_t* sink) {
  FatPayload p;
  p.data = {tag, tag * 3, tag * 7, tag * 11, tag * 13, tag * 17};
  return EventFn([p = std::move(p), sink] {
    std::uint64_t sum = 0;
    for (std::uint64_t v : p.data) {
      sum += v;
    }
    *sink += sum;
  });
}

TEST(EventFnThread, AllocateHereExecuteAndDestroyThere) {
  constexpr int kEvents = 200;
  std::uint64_t sink = 0;
  std::vector<EventFn> events;
  events.reserve(kEvents);
  std::uint64_t expect = 0;
  for (int i = 0; i < kEvents; ++i) {
    const std::uint64_t tag = static_cast<std::uint64_t>(i) + 1;
    expect += tag * (1 + 3 + 7 + 11 + 13 + 17);
    events.push_back(MakeSlabBacked(tag, &sink));
  }
  // Execute and destroy every event on a different thread: each destruction
  // is a remote free that must land back on this thread's pool.
  std::thread t([&events, &sink] {
    for (EventFn& fn : events) {
      fn();
    }
    events.clear();
    (void)sink;
  });
  t.join();
  EXPECT_EQ(sink, expect);
}

TEST(EventFnThread, PoolOutlivesItsAllocatingThread) {
  std::uint64_t sink = 0;
  std::vector<EventFn> events;
  // Allocate on a short-lived thread, then let that thread exit while the
  // events are still alive. The pool must survive (refcounted by its
  // outstanding chunks) until the main thread destroys the last one.
  std::thread producer([&events, &sink] {
    for (int i = 0; i < 64; ++i) {
      events.push_back(MakeSlabBacked(static_cast<std::uint64_t>(i) + 1, &sink));
    }
  });
  producer.join();
  for (EventFn& fn : events) {
    fn();
  }
  events.clear();  // frees chunks of a pool whose owner thread is gone
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) {
    expect += (static_cast<std::uint64_t>(i) + 1) * (1 + 3 + 7 + 11 + 13 + 17);
  }
  EXPECT_EQ(sink, expect);
}

TEST(EventFnThread, PingPongReusesChunksAcrossThreads) {
  // Round-trips: main allocates, worker destroys, repeat. After the first
  // rounds the owner's freelist is fed entirely by drained remote frees, so
  // the pool's live-chunk count must stay flat instead of growing.
  std::uint64_t sink = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<EventFn> events;
    for (int i = 0; i < 32; ++i) {
      events.push_back(MakeSlabBacked(static_cast<std::uint64_t>(round * 100 + i), &sink));
    }
    const std::size_t live_before_free = internal::EventSlabPool::LiveChunks();
    EXPECT_GE(live_before_free, 32u);
    std::thread t([events = std::move(events)]() mutable { events.clear(); });
    t.join();
    // The remote frees are drained lazily (on the owner's next refill), so
    // all we require here is that repeated rounds do not leak: the live
    // count right after allocation stays bounded by one slab's worth.
  }
  std::vector<EventFn> probe;
  for (int i = 0; i < 32; ++i) {
    probe.push_back(MakeSlabBacked(1, &sink));
  }
  EXPECT_LE(internal::EventSlabPool::LiveChunks(), 512u)
      << "chunks freed remotely were never reused";
  probe.clear();
}

TEST(EventFnThread, ManyThreadsChurnConcurrently) {
  // Each thread allocates its own events and hands them to the next thread
  // (ring) for execution+destruction — every free is remote, all concurrent.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::vector<EventFn>> handoff(kThreads);
  std::vector<std::uint64_t> sinks(kThreads, 0);
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([t, &handoff, &sinks] {
        for (int i = 0; i < kPerThread; ++i) {
          handoff[static_cast<std::size_t>(t)].push_back(
              MakeSlabBacked(static_cast<std::uint64_t>(i) + 1,
                             &sinks[static_cast<std::size_t>(t)]));
        }
      });
    }
    for (std::thread& th : producers) {
      th.join();
    }
  }
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kThreads; ++t) {
      const int src = (t + 1) % kThreads;  // execute a *different* thread's events
      consumers.emplace_back([src, &handoff] {
        for (EventFn& fn : handoff[static_cast<std::size_t>(src)]) {
          fn();
        }
        handoff[static_cast<std::size_t>(src)].clear();
      });
    }
    for (std::thread& th : consumers) {
      th.join();
    }
  }
  std::uint64_t expect = 0;
  for (int i = 0; i < kPerThread; ++i) {
    expect += (static_cast<std::uint64_t>(i) + 1) * (1 + 3 + 7 + 11 + 13 + 17);
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)], expect) << "thread " << t;
  }
}

}  // namespace
}  // namespace fabacus

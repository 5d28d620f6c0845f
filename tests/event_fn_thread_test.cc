// Cross-thread lifetime tests for heap-backed EventFns. A partitioned fleet
// run builds shard simulators on the caller thread, serves them on
// SweepRunner workers (which execute, and so destroy, events the caller
// built) and destroys them back on the caller, after the worker threads have
// exited with their own events still pending. Every event must run once and
// have its capture destroyed exactly once, whichever thread drops it; the
// tsan CI job runs this file under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"

namespace fabacus {
namespace {

// Destructions of every live capture, across all threads.
std::atomic<int> g_payload_dtors{0};

// A capture fat enough (and non-trivially-copyable enough) to force the heap
// path — EventFn inlines only trivially-copyable captures up to 32 bytes. A
// moved-from payload has no data, so only the live copy counts its death.
struct FatPayload {
  FatPayload() = default;
  FatPayload(FatPayload&&) noexcept = default;
  FatPayload& operator=(FatPayload&&) noexcept = default;
  ~FatPayload() {
    if (!data.empty()) {
      g_payload_dtors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<std::uint64_t> data;
};

EventFn MakeHeapBacked(std::uint64_t tag, std::uint64_t* sink) {
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
  const int dtors_before = g_payload_dtors.load();
  std::uint64_t sink = 0;
  std::vector<EventFn> events;
  events.reserve(kEvents);
  std::uint64_t expect = 0;
  for (int i = 0; i < kEvents; ++i) {
    const std::uint64_t tag = static_cast<std::uint64_t>(i) + 1;
    expect += tag * (1 + 3 + 7 + 11 + 13 + 17);
    events.push_back(MakeHeapBacked(tag, &sink));
  }
  // Execute and destroy every event on a different thread: each `delete`
  // frees memory this thread allocated.
  std::thread t([&events, &sink] {
    for (EventFn& fn : events) {
      fn();
    }
    events.clear();
    (void)sink;
  });
  t.join();
  EXPECT_EQ(sink, expect);
  EXPECT_EQ(g_payload_dtors.load() - dtors_before, kEvents);
}

TEST(EventFnThread, OutlivesItsBuildingThread) {
  std::uint64_t sink = 0;
  std::vector<EventFn> events;
  const int dtors_before = g_payload_dtors.load();
  // Build on a short-lived thread, then let that thread exit while the
  // events are still alive; the main thread runs and destroys them.
  std::thread producer([&events, &sink] {
    for (int i = 0; i < 64; ++i) {
      events.push_back(MakeHeapBacked(static_cast<std::uint64_t>(i) + 1, &sink));
    }
  });
  producer.join();
  for (EventFn& fn : events) {
    fn();
  }
  EXPECT_EQ(g_payload_dtors.load(), dtors_before);
  events.clear();  // frees memory allocated by a thread that has exited
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) {
    expect += (static_cast<std::uint64_t>(i) + 1) * (1 + 3 + 7 + 11 + 13 + 17);
  }
  EXPECT_EQ(sink, expect);
  EXPECT_EQ(g_payload_dtors.load() - dtors_before, 64);
}

TEST(EventFnThread, ManyThreadsChurnConcurrently) {
  // Each thread builds its own events and hands them to the next thread
  // (ring) for execution+destruction — every free is on a thread other than
  // the allocating one, and all run concurrently.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  const int dtors_before = g_payload_dtors.load();
  std::vector<std::vector<EventFn>> handoff(kThreads);
  std::vector<std::uint64_t> sinks(kThreads, 0);
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([t, &handoff, &sinks] {
        for (int i = 0; i < kPerThread; ++i) {
          handoff[static_cast<std::size_t>(t)].push_back(
              MakeHeapBacked(static_cast<std::uint64_t>(i) + 1,
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
  EXPECT_EQ(g_payload_dtors.load() - dtors_before, kThreads * kPerThread);
}

}  // namespace
}  // namespace fabacus

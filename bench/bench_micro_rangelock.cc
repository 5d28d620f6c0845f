// google-benchmark microbenchmarks for the range lock (a std::multimap keyed
// by first group, queried over [first - longest held span, last]):
// acquire/release throughput at different held populations, the
// conflict-query cost and waiter dispatch.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/range_lock.h"
#include "src/sim/rng.h"

namespace fabacus {
namespace {

void BM_AcquireReleaseDisjoint(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  RangeLock lock;
  std::vector<RangeLock::LockId> held;
  held.reserve(static_cast<std::size_t>(population));
  for (int i = 0; i < population; ++i) {
    RangeLock::LockId id = 0;
    lock.TryAcquire(static_cast<std::uint64_t>(i) * 100, static_cast<std::uint64_t>(i) * 100 + 50,
                    LockMode::kRead, &id);
    held.push_back(id);
  }
  std::uint64_t next = static_cast<std::uint64_t>(population) * 100;
  for (auto _ : state) {
    RangeLock::LockId id = 0;
    benchmark::DoNotOptimize(lock.TryAcquire(next, next + 50, LockMode::kWrite, &id));
    lock.Release(id);
  }
  for (RangeLock::LockId id : held) {
    lock.Release(id);
  }
}
BENCHMARK(BM_AcquireReleaseDisjoint)->Arg(16)->Arg(256)->Arg(4096);

void BM_ConflictQuery(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  RangeLock lock;
  Rng rng(7);
  std::vector<RangeLock::LockId> held;
  for (int i = 0; i < population; ++i) {
    RangeLock::LockId id = 0;
    const std::uint64_t first = rng.NextBelow(1u << 24);
    if (lock.TryAcquire(first, first + rng.NextBelow(512), LockMode::kRead, &id)) {
      held.push_back(id);
    }
  }
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.Conflicts(probe, probe + 128, LockMode::kWrite));
    probe = (probe + 997) & ((1u << 24) - 1);
  }
  for (RangeLock::LockId id : held) {
    lock.Release(id);
  }
}
BENCHMARK(BM_ConflictQuery)->Arg(64)->Arg(1024)->Arg(16384);

void BM_WaiterDispatch(benchmark::State& state) {
  for (auto _ : state) {
    RangeLock lock;
    RangeLock::LockId writer = 0;
    lock.TryAcquire(0, 1000, LockMode::kWrite, &writer);
    int granted = 0;
    for (int i = 0; i < 64; ++i) {
      lock.Acquire(static_cast<std::uint64_t>(i) * 10, static_cast<std::uint64_t>(i) * 10 + 5,
                   LockMode::kRead, [&granted](RangeLock::LockId id) {
                     ++granted;
                     benchmark::DoNotOptimize(id);
                   });
    }
    lock.Release(writer);  // dispatches all 64 waiters
    benchmark::DoNotOptimize(granted);
  }
}
BENCHMARK(BM_WaiterDispatch);

}  // namespace
}  // namespace fabacus

BENCHMARK_MAIN();

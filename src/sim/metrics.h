// MetricsRegistry: the uniform per-component statistics plumbing of the
// observability layer. Components register their counters, gauges and
// histograms under hierarchical slash-separated names ("flashvisor/
// reads_served", "flash/ch0/tag_wait_ns", "lwp/2/screens_executed"); the
// registry produces deterministic, name-sorted snapshots that RunReport
// serializes to JSON. See docs/OBSERVABILITY.md for the naming scheme.
//
// Ownership: the registry stores *references* — components keep owning their
// Counter/LogHistogram members (so standalone component tests need no registry)
// and must outlive the registry they registered with. Gauges are callbacks
// sampled at Snapshot() time; they receive the snapshot's `now` so
// time-derived values (busy time, utilization) stay consistent across the
// whole snapshot.
#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

class JsonWriter;

// One sampled metric in a snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  // Counter/gauge reading; for histograms, the sample count.
  double value = 0.0;
  // Distribution summary; meaningful only when kind == kHistogram.
  HistogramSummary summary;
};

// An immutable, name-sorted capture of every registered metric at one instant.
class MetricsSnapshot {
 public:
  const std::vector<MetricSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  bool Has(const std::string& name) const { return Find(name) != nullptr; }
  // nullptr when no metric of that name was registered.
  const MetricSample* Find(const std::string& name) const;
  // CHECK-fails when absent; counter/gauge reading or histogram count.
  double Value(const std::string& name) const;
  // Names matching a "prefix/" hierarchy level (e.g. "storengine/").
  std::vector<std::string> NamesWithPrefix(const std::string& prefix) const;

  // Serializes as one JSON object: {"name": value, ...}; a histogram's value
  // is its WriteSummaryJson object.
  void WriteJson(JsonWriter* w) const;

 private:
  friend class MetricsRegistry;
  std::vector<MetricSample> samples_;  // sorted by name
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration CHECK-fails on a duplicate name: two components silently
  // sharing one metric name would corrupt every report built on top.
  void RegisterCounter(const std::string& name, const Counter* counter);
  void RegisterGauge(const std::string& name, std::function<double(Tick)> fn);
  // A sketch snapshots to its HistogramSummary (count/min/mean/p50/p95/p99/
  // max).
  void RegisterHistogram(const std::string& name, const LogHistogram* sketch);

  bool Has(const std::string& name) const { return entries_.count(name) != 0; }
  std::size_t size() const { return entries_.size(); }

  // Samples every metric at `now`. Deterministic: same registry state + same
  // `now` => identical snapshots (entries are kept name-sorted).
  MetricsSnapshot Snapshot(Tick now) const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    const Counter* counter = nullptr;
    std::function<double(Tick)> gauge;
    const LogHistogram* sketch = nullptr;
  };
  void CheckNew(const std::string& name) const;

  std::map<std::string, Entry> entries_;
};

}  // namespace fabacus

#endif  // SRC_SIM_METRICS_H_

// Helpers that turn a device MetricsSnapshot into the benchmark's
// layer-counter names ("flash.programs", "flash.tag_wait_ns", ...).
#ifndef PERFBENCH_FABBENCH_METRICS_UTIL_H_
#define PERFBENCH_FABBENCH_METRICS_UTIL_H_

#include <map>
#include <string>
#include <vector>

#include "src/sim/metrics.h"

namespace fabbench {

inline void AddTo(std::map<std::string, double>* m, const std::string& name, double v) {
  (*m)[name] += v;
}

// Sum of every sample whose name starts with `prefix` and ends with `suffix`.
inline double SumMatching(const fabacus::MetricsSnapshot& m, const std::string& prefix,
                          const std::string& suffix) {
  double sum = 0.0;
  for (const std::string& name : m.NamesWithPrefix(prefix)) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += m.Value(name);
    }
  }
  return sum;
}

// The flash backbone's data-plane counters, plus the controllers' tag-queue
// wait and bus busy time summed over channels, each divided by the simulated
// time `sim_ns` the counters cover (the bus time also by the channel count,
// giving the mean bus utilization).
inline void AddFlashCounters(const fabacus::MetricsSnapshot& m, double sim_ns, int channels,
                             std::map<std::string, double>* out) {
  AddTo(out, "flash.reads", m.Value("flash/reads"));
  AddTo(out, "flash.programs", m.Value("flash/programs"));
  AddTo(out, "flash.erases", m.Value("flash/erases"));
  AddTo(out, "flash.read_retries", m.Value("flash/read_retries"));
  AddTo(out, "flash.tag_wait_ratio", SumMatching(m, "flash/ch", "/tag_wait_ns") / sim_ns);
  AddTo(out, "flash.bus_utilization",
        SumMatching(m, "flash/ch", "/bus_busy_ns") / (sim_ns * channels));
}

// Median and tail of a latency sample set. The tail is p99 when at least
// 1,000 samples exist, else the highest percentile that leaves ten samples
// beyond it; its percentile and the sample count are recorded beside it.
void AddLatency(std::vector<double>* samples_ms, std::map<std::string, double>* out);

}  // namespace fabbench

#endif  // PERFBENCH_FABBENCH_METRICS_UTIL_H_

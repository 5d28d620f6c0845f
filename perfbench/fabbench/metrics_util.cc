#include "metrics_util.h"

#include <algorithm>
#include <cmath>

namespace fabbench {
namespace {

// Percentile p (0-100) of `v` by linear interpolation between closest ranks;
// sorts `v` in place. 0 for an empty vector.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) {
    return 0.0;
  }
  std::sort(v->begin(), v->end());
  const double rank = p / 100.0 * static_cast<double>(v->size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (rank - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

}  // namespace

void AddLatency(std::vector<double>* samples_ms, std::map<std::string, double>* out) {
  const double n = static_cast<double>(samples_ms->size());
  const double tail_pct = n >= 1000.0 ? 99.0 : std::max(50.0, 100.0 * (1.0 - 10.0 / n));
  (*out)["latency_p50_ms"] = Percentile(samples_ms, 50.0);
  (*out)["latency_tail_ms"] = Percentile(samples_ms, tail_pct);
  (*out)["latency_tail_pct"] = tail_pct;
  (*out)["latency_samples"] = n;
}

}  // namespace fabbench

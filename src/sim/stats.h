// Statistics primitives shared by all simulator components:
//  * Counter           — monotonically increasing event/byte counts.
//  * BusyTracker       — integrates busy time of a resource (utilization, energy).
//  * Histogram         — exact latency distributions (stores every sample).
//  * LogHistogram      — bounded mergeable log-scale sketch for fleet scale.
//  * BoundedTimeSeries — constant-memory coarsening time series for fleets.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/log.h"
#include "src/sim/time.h"

namespace fabacus {

class StateReader;
class StateWriter;

class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

  // Checkpoint/restore (docs/SNAPSHOT.md).
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  std::uint64_t value_ = 0;
};

// Tracks the total time a resource spends busy. Supports nested/overlapping
// demand via a depth counter: the resource is busy whenever depth > 0.
//
// Edge cases (locked in by sim_test):
//  * Leave() with depth 0 is a broken Enter/Leave pairing and CHECK-fails —
//    silently clamping would hide the component bug that unbalanced the
//    tracker and corrupt every utilization/energy figure derived from it.
//  * BusyTime(now) with an open interval and `now < open_since_` returns only
//    the accumulated closed time: the open interval has not yet contributed
//    any busy time at `now`, and must never contribute a negative span.
class BusyTracker {
 public:
  // Marks the resource busy starting at `now`.
  void Enter(Tick now);
  // Marks the end of one unit of demand at `now`. Requires depth() > 0.
  void Leave(Tick now);
  // Adds a closed busy interval [start, end) directly.
  void AddInterval(Tick start, Tick end);

  // Total busy time up to `now` (flushes any open interval; an interval
  // opened after `now` contributes nothing).
  Tick BusyTime(Tick now) const;
  // Busy fraction over [0, now].
  double Utilization(Tick now) const;

  int depth() const { return depth_; }

  // Checkpoint/restore — exact state (accumulated + open interval + depth),
  // since BusyTime feeds utilization and energy figures.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  mutable Tick accumulated_ = 0;
  mutable Tick open_since_ = 0;
  int depth_ = 0;
};

// One-pass distribution summary shared by the exact Histogram and the
// LogHistogram sketch. count == 0 means "no samples" and every statistic is
// 0.0 — report writers emit it instead of crashing on an empty shard.
struct HistogramSummary {
  std::uint64_t count = 0;
  double min = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

class Histogram {
 public:
  void Record(double v) {
    samples_.push_back(v);
    sorted_valid_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  // Empty-safe: every statistic returns 0.0 when no samples were recorded
  // (a shard that dies before serving anything must not abort the report).
  double Min() const;
  double Max() const;
  double Mean() const;
  // p in [0, 100].
  double Percentile(double p) const;
  // min/mean/p50/p95/p99/max in one pass over a single sorted copy.
  HistogramSummary Summarize() const;
  const std::vector<double>& samples() const { return samples_; }
  void Reset() {
    samples_.clear();
    sorted_valid_ = false;
  }

  // Number of times the sorted cache was (re)built — Percentile/Summarize
  // share one sort per batch of queries; sim_test pins this down.
  std::uint64_t sort_count() const { return sort_count_; }

  // Checkpoint/restore of the raw sample vector (insertion order matters for
  // byte-identical SaveState bytes; the sorted view is a cache, never saved).
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  const std::vector<double>& Sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  mutable std::uint64_t sort_count_ = 0;
};

// Bounded, mergeable streaming histogram: HDR-style log-linear buckets.
// Each power-of-two octave of the value range splits into kSubBuckets
// equal-width linear sub-buckets, so the relative quantization error of any
// reconstructed quantile is at most 1/kSubBuckets (= 1/64 ≈ 1.6%, documented
// as ≤ 2% in docs/OBSERVABILITY.md). min/max/count are exact; the sum behind
// Mean() accumulates in 128-bit fixed point (2^-20 units ≈ 1 ns for values
// in ms), so every statistic is *fully order-invariant*: recording or
// merging the same samples in any order — completion order on a lockstep
// loop, id order on the partitioned path, shard order in a fleet merge —
// produces bit-identical results. Memory is constant: kNumBuckets u64
// counters (~18 KB), lazily allocated on the first Record, independent of
// sample count. Values are expected non-negative (latencies); negatives
// clamp to the underflow bucket and contribute 0 to the mean sum.
class LogHistogram {
 public:
  // Geometry: values (milliseconds in fleet use) from 2^kMinExp2 ≈ 0.24 µs
  // up to 2^kMaxExp2 ≈ 70 min; out-of-range values clamp into the edge
  // buckets (min/max stay exact regardless).
  static constexpr int kMinExp2 = -12;
  static constexpr int kMaxExp2 = 22;
  static constexpr int kSubBuckets = 64;
  static constexpr int kNumBuckets = (kMaxExp2 - kMinExp2 + 1) * kSubBuckets;
  // Max relative error of a reconstructed quantile vs. the exact sample.
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;
  // Fixed-point scale of the mean sum: integer addition is associative and
  // commutative where double addition is not, which is what makes Mean()
  // independent of record/merge order.
  static constexpr double kSumScale = 1048576.0;  // 2^20 units per 1.0

  void Record(double v);
  // Exact element-wise merge of another sketch (integer counts + integer
  // sum), so merge order cannot change any statistic.
  void Merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const {
    if (count_ == 0) {
      return 0.0;
    }
    const double total =
        static_cast<double>(sum_hi_) * 18446744073709551616.0 +  // 2^64
        static_cast<double>(sum_lo_);
    return total / kSumScale / static_cast<double>(count_);
  }
  // p in [0, 100]; deterministic interpolation, empty-safe (returns 0.0).
  double Percentile(double p) const;
  HistogramSummary Summarize() const;
  void Reset();

  // Checkpoint/restore: geometry fingerprint + exact moments + sparse
  // non-zero buckets. Loading a sketch with different geometry fails the
  // reader (snapshots are not portable across bucket layouts).
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  static int BucketIndex(double v);
  static double BucketLo(int idx);
  static double BucketHi(int idx);

  void AddToSum(std::uint64_t lo, std::uint64_t hi);

  std::uint64_t count_ = 0;
  std::uint64_t sum_lo_ = 0;  // 128-bit fixed-point sum of samples,
  std::uint64_t sum_hi_ = 0;  // in kSumScale units
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> counts_;  // empty until first Record/Merge
};

// Constant-memory (time, value) series: at most max_bins equal-width bins of
// (sum, count). The bin width starts at one tick and doubles — merging
// adjacent bin pairs — whenever a sample lands past the covered range, so an
// unbounded request stream keeps a fixed-resolution summary instead of one
// sample per event. Rebucket averages the samples that fall in each output
// bucket (count-weighted, each bin at its midpoint) and holds the last value
// through empty buckets (zero-order hold), so at horizons no finer than the
// bin width it matches an exact per-sample average.
class BoundedTimeSeries {
 public:
  static constexpr std::size_t kDefaultMaxBins = 256;

  explicit BoundedTimeSeries(std::size_t max_bins = kDefaultMaxBins);

  void Record(Tick time, double value);
  // Total samples ever recorded (the report's "samples" field).
  std::uint64_t samples() const { return samples_; }
  bool empty() const { return samples_ == 0; }
  Tick bin_width() const { return bin_width_; }
  std::size_t max_bins() const { return max_bins_; }

  std::vector<double> Rebucket(Tick horizon, std::size_t buckets) const;

  // Checkpoint/restore.
  void SaveState(StateWriter& w) const;
  void LoadState(StateReader& r);

 private:
  struct Bin {
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  void Coarsen();

  std::size_t max_bins_;
  Tick bin_width_ = 1;
  std::vector<Bin> bins_;  // bins_[i] covers [i*bin_width_, (i+1)*bin_width_)
  std::uint64_t samples_ = 0;
};

}  // namespace fabacus

#endif  // SRC_SIM_STATS_H_

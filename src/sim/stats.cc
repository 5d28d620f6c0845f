#include "src/sim/stats.h"

#include <cmath>
#include <numeric>

#include "src/sim/json.h"
#include "src/sim/snapshot.h"

namespace fabacus {

void Counter::Persist(StateIO& io) { io.U64(value_); }

void BusyTracker::Persist(StateIO& io) {
  io.U64(accumulated_);
  io.U64(open_since_);
  io.I32(depth_);
  if (depth_ < 0) {
    io.Fail("BusyTracker depth is negative");
    depth_ = 0;
  }
}

void BusyTracker::Enter(Tick now) {
  if (depth_ == 0) {
    open_since_ = now;
  }
  ++depth_;
}

void BusyTracker::Leave(Tick now) {
  FAB_CHECK_GT(depth_, 0) << "Leave without matching Enter";
  --depth_;
  if (depth_ == 0) {
    FAB_CHECK_GE(now, open_since_);
    accumulated_ += now - open_since_;
  }
}

void BusyTracker::AddInterval(Tick start, Tick end) {
  FAB_CHECK_GE(end, start);
  accumulated_ += end - start;
}

Tick BusyTracker::BusyTime(Tick now) const {
  Tick busy = accumulated_;
  if (depth_ > 0 && now > open_since_) {
    busy += now - open_since_;
  }
  return busy;
}

double BusyTracker::Utilization(Tick now) const {
  if (now == 0) {
    return 0.0;
  }
  return static_cast<double>(BusyTime(now)) / static_cast<double>(now);
}

HistogramSummary SummarizeSamples(std::vector<double> samples) {
  HistogramSummary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  // Summed before the sort: double addition is not associative, and the
  // reports' mean is the recording-order sum.
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  const auto percentile = [&samples](double p) {
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  s.p50 = percentile(50.0);
  s.p95 = percentile(95.0);
  s.p99 = percentile(99.0);
  return s;
}

void WriteSummaryJson(JsonWriter* w, const HistogramSummary& s) {
  w->BeginObject();
  w->Field("count", static_cast<double>(s.count));
  if (s.count > 0) {
    w->Field("min", s.min)
        .Field("mean", s.mean)
        .Field("p50", s.p50)
        .Field("p95", s.p95)
        .Field("p99", s.p99)
        .Field("max", s.max);
  }
  w->EndObject();
}

// --- LogHistogram -----------------------------------------------------------

int LogHistogram::BucketIndex(double v) {
  if (!(v > 0.0)) {
    return 0;  // non-positive (and NaN) clamp into the underflow bucket
  }
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant ∈ [0.5,1)
  if (exp < kMinExp2) {
    return 0;
  }
  if (exp > kMaxExp2) {
    return kNumBuckets - 1;
  }
  int sub = static_cast<int>((mant - 0.5) * (2.0 * kSubBuckets));
  if (sub < 0) {
    sub = 0;
  } else if (sub >= kSubBuckets) {
    sub = kSubBuckets - 1;
  }
  return (exp - kMinExp2) * kSubBuckets + sub;
}

double LogHistogram::BucketLo(int idx) {
  const int oct = idx / kSubBuckets;
  const int sub = idx % kSubBuckets;
  return std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets),
                    kMinExp2 + oct);
}

double LogHistogram::BucketHi(int idx) {
  const int oct = idx / kSubBuckets;
  const int sub = idx % kSubBuckets;
  return std::ldexp(0.5 + static_cast<double>(sub + 1) / (2.0 * kSubBuckets),
                    kMinExp2 + oct);
}

void LogHistogram::AddToSum(std::uint64_t lo, std::uint64_t hi) {
  // 128-bit unsigned addition via (lo, hi) limbs; exact and commutative.
  sum_lo_ += lo;
  sum_hi_ += hi + (sum_lo_ < lo ? 1 : 0);
}

void LogHistogram::Record(double v) {
  if (counts_.empty()) {
    counts_.assign(kNumBuckets, 0);
  }
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  // Negative (out-of-domain) values contribute 0; enormous values saturate
  // one limb rather than overflowing llround.
  const double scaled = v > 0.0 ? v * kSumScale : 0.0;
  const std::uint64_t delta =
      scaled >= 9.0e18 ? static_cast<std::uint64_t>(9.0e18)
                       : static_cast<std::uint64_t>(std::llround(scaled));
  AddToSum(delta, 0);
  ++counts_[static_cast<std::size_t>(BucketIndex(v))];
}

double LogHistogram::Percentile(double p) const {
  FAB_CHECK_GE(p, 0.0);
  FAB_CHECK_LE(p, 100.0);
  if (count_ == 0) {
    return 0.0;
  }
  if (p <= 0.0 || count_ == 1) {
    return min_;
  }
  if (p >= 100.0) {
    return max_;
  }
  // Same rank convention as SummarizeSamples (0-indexed, linear), but
  // interpolated within the containing bucket instead of between samples.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t n = counts_[static_cast<std::size_t>(i)];
    if (n == 0) {
      continue;
    }
    if (rank < static_cast<double>(cum + n)) {
      const double frac = (rank - static_cast<double>(cum)) /
                          static_cast<double>(n);
      const double lo = BucketLo(i);
      const double v = lo + frac * (BucketHi(i) - lo);
      return std::min(std::max(v, min_), max_);
    }
    cum += n;
  }
  return max_;
}

HistogramSummary LogHistogram::Summarize() const {
  HistogramSummary s;
  s.count = count_;
  if (count_ == 0) {
    return s;
  }
  s.min = Min();
  s.max = Max();
  s.mean = Mean();
  s.p50 = Percentile(50.0);
  s.p95 = Percentile(95.0);
  s.p99 = Percentile(99.0);
  return s;
}

void LogHistogram::Reset() {
  count_ = 0;
  sum_lo_ = 0;
  sum_hi_ = 0;
  min_ = 0.0;
  max_ = 0.0;
  counts_.clear();
}

void LogHistogram::Persist(StateIO& io) {
  if (!io.saving()) {
    Reset();
  }
  // Geometry fingerprint first: a sketch restored into a binary with a
  // different bucket layout would silently mis-bucket every count.
  std::int32_t min_exp = kMinExp2;
  std::int32_t max_exp = kMaxExp2;
  std::int32_t sub = kSubBuckets;
  io.I32(min_exp);
  io.I32(max_exp);
  io.I32(sub);
  if (min_exp != kMinExp2 || max_exp != kMaxExp2 || sub != kSubBuckets) {
    io.Fail("LogHistogram geometry mismatch");
    return;
  }
  io.U64(count_);
  io.U64(sum_lo_);
  io.U64(sum_hi_);
  io.F64(min_);
  io.F64(max_);
  // Sparse buckets: (index, count) for each non-zero one, ascending.
  std::uint64_t nonzero = 0;
  for (std::uint64_t c : counts_) {
    if (c != 0) {
      ++nonzero;
    }
  }
  io.U64(nonzero);
  if (io.saving()) {
    for (std::uint32_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) {
        io.U32(i);
        io.U64(counts_[i]);
      }
    }
    return;
  }
  if (nonzero > 0 || count_ > 0) {
    counts_.assign(kNumBuckets, 0);
  }
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < nonzero && io.ok(); ++i) {
    std::uint32_t idx = 0;
    std::uint64_t c = 0;
    io.U32(idx);
    io.U64(c);
    if (idx >= static_cast<std::uint32_t>(kNumBuckets)) {
      io.Fail("LogHistogram bucket index out of range");
      return;
    }
    counts_[idx] = c;
    total += c;
  }
  if (io.ok() && total != count_) {
    io.Fail("LogHistogram bucket counts disagree with total");
  }
}

// --- BoundedTimeSeries ------------------------------------------------------

BoundedTimeSeries::BoundedTimeSeries(std::size_t max_bins)
    : max_bins_(max_bins) {
  FAB_CHECK_GT(max_bins_, 1u);
}

void BoundedTimeSeries::Coarsen() {
  bin_width_ *= 2;
  const std::size_t half = (bins_.size() + 1) / 2;
  for (std::size_t i = 0; i < half; ++i) {
    Bin merged = bins_[2 * i];
    if (2 * i + 1 < bins_.size()) {
      merged.sum += bins_[2 * i + 1].sum;
      merged.count += bins_[2 * i + 1].count;
    }
    bins_[i] = merged;
  }
  bins_.resize(half);
}

void BoundedTimeSeries::Record(Tick time, double value) {
  while (time / bin_width_ >= max_bins_) {
    Coarsen();
  }
  const std::size_t idx = static_cast<std::size_t>(time / bin_width_);
  if (idx >= bins_.size()) {
    bins_.resize(idx + 1);
  }
  bins_[idx].sum += value;
  ++bins_[idx].count;
  ++samples_;
}

std::vector<double> BoundedTimeSeries::Rebucket(Tick horizon,
                                                std::size_t buckets) const {
  FAB_CHECK_GT(buckets, 0u);
  std::vector<double> out(buckets, 0.0);
  std::vector<std::uint64_t> counts(buckets, 0);
  if (horizon == 0) {
    return out;
  }
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i].count == 0) {
      continue;
    }
    // A bin stands in for its samples at the bin midpoint.
    const Tick mid = static_cast<Tick>(i) * bin_width_ + bin_width_ / 2;
    if (mid >= horizon) {
      continue;
    }
    const std::size_t b = static_cast<std::size_t>(
        static_cast<unsigned long long>(mid) * buckets / horizon);
    out[b] += bins_[i].sum;
    counts[b] += bins_[i].count;
  }
  double last = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    if (counts[b] > 0) {
      out[b] /= static_cast<double>(counts[b]);
      last = out[b];
    } else {
      out[b] = last;
    }
  }
  return out;
}

}  // namespace fabacus

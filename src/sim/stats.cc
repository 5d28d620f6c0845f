#include "src/sim/stats.h"

#include <cmath>
#include <numeric>

#include "src/sim/snapshot.h"

namespace fabacus {

void Counter::SaveState(StateWriter& w) const { w.U64(value_); }

void Counter::LoadState(StateReader& r) { value_ = r.U64(); }

void BusyTracker::SaveState(StateWriter& w) const {
  w.U64(accumulated_);
  w.U64(open_since_);
  w.I32(depth_);
}

void BusyTracker::LoadState(StateReader& r) {
  accumulated_ = r.U64();
  open_since_ = r.U64();
  depth_ = r.I32();
  if (depth_ < 0) {
    r.Fail("BusyTracker depth is negative");
    depth_ = 0;
  }
}

void Histogram::SaveState(StateWriter& w) const { w.VecF64(samples_); }

void Histogram::LoadState(StateReader& r) {
  samples_ = r.VecF64();
  sorted_valid_ = false;
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

double Histogram::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  const double sum = std::accumulate(samples_.begin(), samples_.end(), 0.0);
  return sum / static_cast<double>(samples_.size());
}

const std::vector<double>& Histogram::Sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    ++sort_count_;
    sorted_valid_ = true;
  }
  return sorted_;
}

double Histogram::Percentile(double p) const {
  FAB_CHECK_GE(p, 0.0);
  FAB_CHECK_LE(p, 100.0);
  if (samples_.empty()) {
    return 0.0;
  }
  const std::vector<double>& sorted = Sorted();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

HistogramSummary Histogram::Summarize() const {
  HistogramSummary s;
  s.count = samples_.size();
  if (s.count == 0) {
    return s;
  }
  const std::vector<double>& sorted = Sorted();
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = Mean();
  s.p50 = Percentile(50.0);
  s.p95 = Percentile(95.0);
  s.p99 = Percentile(99.0);
  return s;
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

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  AddToSum(other.sum_lo_, other.sum_hi_);
  if (counts_.empty()) {
    counts_.assign(kNumBuckets, 0);
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    counts_[static_cast<std::size_t>(i)] +=
        other.counts_[static_cast<std::size_t>(i)];
  }
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
  // Same rank convention as Histogram::Percentile (0-indexed, linear), but
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

void LogHistogram::SaveState(StateWriter& w) const {
  // Geometry fingerprint first: a sketch restored into a binary with a
  // different bucket layout would silently mis-bucket every count.
  w.I32(kMinExp2);
  w.I32(kMaxExp2);
  w.I32(kSubBuckets);
  w.U64(count_);
  w.U64(sum_lo_);
  w.U64(sum_hi_);
  w.F64(min_);
  w.F64(max_);
  std::uint64_t nonzero = 0;
  for (std::uint64_t c : counts_) {
    if (c != 0) {
      ++nonzero;
    }
  }
  w.U64(nonzero);
  for (int i = 0; i < static_cast<int>(counts_.size()); ++i) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(i)];
    if (c != 0) {
      w.U32(static_cast<std::uint32_t>(i));
      w.U64(c);
    }
  }
}

void LogHistogram::LoadState(StateReader& r) {
  Reset();
  const int min_exp = r.I32();
  const int max_exp = r.I32();
  const int sub = r.I32();
  if (min_exp != kMinExp2 || max_exp != kMaxExp2 || sub != kSubBuckets) {
    r.Fail("LogHistogram geometry mismatch");
    return;
  }
  count_ = r.U64();
  sum_lo_ = r.U64();
  sum_hi_ = r.U64();
  min_ = r.F64();
  max_ = r.F64();
  const std::uint64_t nonzero = r.U64();
  if (nonzero > 0 || count_ > 0) {
    counts_.assign(kNumBuckets, 0);
  }
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < nonzero && r.ok(); ++i) {
    const std::uint32_t idx = r.U32();
    const std::uint64_t c = r.U64();
    if (idx >= static_cast<std::uint32_t>(kNumBuckets)) {
      r.Fail("LogHistogram bucket index out of range");
      return;
    }
    counts_[idx] = c;
    total += c;
  }
  if (r.ok() && total != count_) {
    r.Fail("LogHistogram bucket counts disagree with total");
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

void BoundedTimeSeries::SaveState(StateWriter& w) const {
  w.U64(max_bins_);
  w.U64(bin_width_);
  w.U64(samples_);
  w.U64(bins_.size());
  for (const Bin& b : bins_) {
    w.F64(b.sum);
    w.U64(b.count);
  }
}

void BoundedTimeSeries::LoadState(StateReader& r) {
  const std::uint64_t max_bins = r.U64();
  if (max_bins != max_bins_) {
    r.Fail("BoundedTimeSeries max_bins mismatch");
    return;
  }
  bin_width_ = r.U64();
  if (bin_width_ == 0) {
    r.Fail("BoundedTimeSeries bin width is zero");
    bin_width_ = 1;
    return;
  }
  samples_ = r.U64();
  const std::uint64_t n = r.U64();
  if (n > max_bins_) {
    r.Fail("BoundedTimeSeries bin count exceeds max_bins");
    return;
  }
  bins_.assign(static_cast<std::size_t>(n), Bin{});
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    bins_[static_cast<std::size_t>(i)].sum = r.F64();
    bins_[static_cast<std::size_t>(i)].count = r.U64();
  }
}

}  // namespace fabacus

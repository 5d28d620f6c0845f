// Locks down the bounded streaming-sketch layer (docs/OBSERVABILITY.md
// "Streaming sketches"): LogHistogram merge/order invariance, the quantile
// error bound against the exact Histogram, empty/single-sample edges,
// checkpoint round-trips, and BoundedTimeSeries coarsening.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"

namespace fabacus {
namespace {

// Seeded latency-shaped samples: a log-uniform spread over ~5 decades, the
// regime the log-scale buckets are sized for.
std::vector<double> LatencySamples(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
    out.push_back(0.01 * std::pow(10.0, u * 5.0));  // 0.01 .. 1000 ms
  }
  return out;
}

bool SketchesIdentical(const LogHistogram& a, const LogHistogram& b) {
  StateWriter wa;
  StateWriter wb;
  a.SaveState(wa);
  b.SaveState(wb);
  return wa.TakeBuffer() == wb.TakeBuffer();
}

TEST(LogHistogram, RecordAndMergeOrderInvariant) {
  const std::vector<double> samples = LatencySamples(7, 2000);

  LogHistogram forward;
  for (double v : samples) {
    forward.Record(v);
  }
  LogHistogram backward;
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    backward.Record(*it);
  }
  // Bit-identical, not just approximately equal: the fixed-point sum makes
  // Mean() associative, which is what lets completion-order (lockstep) and
  // id-order (partitioned) retirement produce byte-identical fleet reports.
  EXPECT_TRUE(SketchesIdentical(forward, backward));
  EXPECT_EQ(forward.count(), 2000u);
  EXPECT_DOUBLE_EQ(forward.Mean(), backward.Mean());

  // Partial sketches merged in either order match the single-writer sketch.
  LogHistogram parts[4];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    parts[i % 4].Record(samples[i]);
  }
  LogHistogram m1;
  for (int i = 0; i < 4; ++i) {
    m1.Merge(parts[i]);
  }
  LogHistogram m2;
  for (int i = 3; i >= 0; --i) {
    m2.Merge(parts[i]);
  }
  EXPECT_TRUE(SketchesIdentical(m1, m2));
  EXPECT_TRUE(SketchesIdentical(m1, forward));
}

TEST(LogHistogram, QuantileErrorBoundedVsExactHistogram) {
  const std::vector<double> samples = LatencySamples(21, 5000);
  Histogram exact;
  LogHistogram sketch;
  for (double v : samples) {
    exact.Record(v);
    sketch.Record(v);
  }
  EXPECT_DOUBLE_EQ(sketch.Min(), exact.Min());
  EXPECT_DOUBLE_EQ(sketch.Max(), exact.Max());
  EXPECT_NEAR(sketch.Mean(), exact.Mean(), exact.Mean() * 1e-6);
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double e = exact.Percentile(p);
    const double s = sketch.Percentile(p);
    // Documented bound: 1/kSubBuckets = 1/64 ~ 1.6% relative quantization
    // error; 3% here leaves slop for interpolation at bucket edges.
    EXPECT_NEAR(s, e, std::max(e * 0.03, 1e-9)) << "p" << p;
  }
}

TEST(LogHistogram, EmptyAndSingleSampleEdges) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  const HistogramSummary empty = h.Summarize();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  h.Record(3.25);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Min(), 3.25);
  EXPECT_DOUBLE_EQ(h.Max(), 3.25);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.25);
  // A one-sample distribution has every percentile equal to that sample.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 3.25);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 3.25);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 3.25);

  // Merging an empty sketch is a no-op; merging into an empty one copies.
  LogHistogram other;
  other.Merge(h);
  EXPECT_TRUE(SketchesIdentical(other, h));
  h.Merge(LogHistogram());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 3.25);
}

TEST(LogHistogram, OutOfRangeValuesClampButStayExactAtExtremes) {
  LogHistogram h;
  h.Record(1e-9);  // far below 2^kMinExp2: underflow bucket
  h.Record(1e12);  // far above 2^kMaxExp2: overflow bucket
  h.Record(0.0);   // non-positive: underflow bucket, contributes 0 to mean
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 1e12);
  // Percentiles are clamped into [min, max] even from edge buckets.
  EXPECT_GE(h.Percentile(99), 0.0);
  EXPECT_LE(h.Percentile(99), 1e12);
}

TEST(LogHistogram, SaveLoadRoundTripIsExact) {
  const std::vector<double> samples = LatencySamples(5, 777);
  LogHistogram h;
  for (double v : samples) {
    h.Record(v);
  }
  StateWriter w;
  h.SaveState(w);
  const std::vector<std::uint8_t> bytes = w.TakeBuffer();

  LogHistogram back;
  back.Record(123.0);  // pre-existing state must be replaced, not merged
  StateReader r(bytes);
  back.LoadState(r);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(SketchesIdentical(back, h));
  EXPECT_DOUBLE_EQ(back.Percentile(95), h.Percentile(95));
}

TEST(LogHistogram, LoadRejectsForeignGeometry) {
  StateWriter w;
  w.I32(LogHistogram::kMinExp2 + 1);  // wrong bucket layout
  w.I32(LogHistogram::kMaxExp2);
  w.I32(LogHistogram::kSubBuckets);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  w.F64(0.0);
  w.F64(0.0);
  w.U64(0);
  const std::vector<std::uint8_t> bytes = w.TakeBuffer();
  LogHistogram h;
  StateReader r(bytes);
  h.LoadState(r);
  EXPECT_FALSE(r.ok());
}

TEST(BoundedTimeSeries, CoarsensInsteadOfGrowing) {
  BoundedTimeSeries ts(16);  // small cap to force many doublings
  for (Tick t = 0; t < 100000; ++t) {
    ts.Record(t, static_cast<double>(t % 7));
  }
  EXPECT_EQ(ts.samples(), 100000u);
  EXPECT_LE(static_cast<std::size_t>(100000 / ts.bin_width()) + 1, 16u);
  // bin_width doubles from 1, so it is always a power of two.
  EXPECT_EQ(ts.bin_width() & (ts.bin_width() - 1), Tick{0});
}

// The exact oracle BoundedTimeSeries approximates: every sample before
// `horizon` averaged into its output bucket, and each empty bucket holding the
// previous bucket's value (zero-order hold).
std::vector<double> ExactRebucket(const std::vector<std::pair<Tick, double>>& samples,
                                  Tick horizon, std::size_t buckets) {
  std::vector<double> out(buckets, 0.0);
  std::vector<std::size_t> counts(buckets, 0);
  for (const auto& [time, value] : samples) {
    if (time < horizon) {
      const std::size_t b = static_cast<std::size_t>(time * buckets / horizon);
      out[b] += value;
      ++counts[b];
    }
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

TEST(BoundedTimeSeries, RebucketMatchesExactSeriesAtBinResolution) {
  std::vector<std::pair<Tick, double>> exact;
  BoundedTimeSeries bounded(256);
  Rng rng(11);
  for (Tick t = 0; t < 1000; t += 10) {
    const double v = static_cast<double>(rng.Next() % 100);
    exact.emplace_back(t, v);
    bounded.Record(t, v);
  }
  // With horizon/buckets no finer than the bin width, both series reduce to
  // the same count-weighted bucket averages.
  ASSERT_LE(bounded.bin_width(), Tick{250});
  const std::vector<double> a = ExactRebucket(exact, 1000, 4);
  const std::vector<double> b = bounded.Rebucket(1000, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9) << "bucket " << i;
  }
}

TEST(BoundedTimeSeries, SaveLoadRoundTrip) {
  BoundedTimeSeries ts(32);
  for (Tick t = 0; t < 5000; t += 3) {
    ts.Record(t, static_cast<double>(t));
  }
  StateWriter w;
  ts.SaveState(w);
  const std::vector<std::uint8_t> bytes = w.TakeBuffer();

  BoundedTimeSeries back(32);
  StateReader r(bytes);
  back.LoadState(r);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.samples(), ts.samples());
  EXPECT_EQ(back.bin_width(), ts.bin_width());
  const std::vector<double> a = ts.Rebucket(5000, 8);
  const std::vector<double> b = back.Rebucket(5000, 8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }

  // A different cap is a different binning contract: reject, don't resample.
  BoundedTimeSeries wrong(16);
  StateReader r2(bytes);
  wrong.LoadState(r2);
  EXPECT_FALSE(r2.ok());
}

TEST(Histogram, EmptySafeStatistics) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  const HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Histogram, SortsOncePerQueryBatch) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(static_cast<double>(99 - i));
  }
  EXPECT_EQ(h.sort_count(), 0u);
  // A batch of queries shares one sorted copy — the old implementation
  // re-sorted the full sample vector on every Percentile call.
  h.Percentile(50);
  h.Percentile(95);
  h.Percentile(99);
  const HistogramSummary s = h.Summarize();
  EXPECT_EQ(h.sort_count(), 1u);
  EXPECT_DOUBLE_EQ(s.p50, h.Percentile(50));
  EXPECT_EQ(h.sort_count(), 1u);
  // New samples invalidate the cache exactly once.
  h.Record(1000.0);
  h.Percentile(50);
  h.Percentile(99);
  EXPECT_EQ(h.sort_count(), 2u);
  EXPECT_DOUBLE_EQ(h.Max(), 1000.0);
}

}  // namespace
}  // namespace fabacus

// MetricsRegistry / MetricsSnapshot behaviour, the BusyTracker edge cases the
// observability layer depends on, and FlashAbacusConfig preset validation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flashabacus.h"
#include "src/sim/json.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"

namespace fabacus {
namespace {

TEST(MetricsRegistry, RegistersAndSamplesAllKinds) {
  Counter c;
  c.Add(3);
  LogHistogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Record(3.0);

  MetricsRegistry reg;
  reg.RegisterCounter("dev/events", &c);
  reg.RegisterGauge("dev/busy_ns", [](Tick now) { return static_cast<double>(now) / 2.0; });
  reg.RegisterHistogram("dev/latency_ms", &h);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.Has("dev/events"));
  EXPECT_FALSE(reg.Has("dev/other"));

  const MetricsSnapshot snap = reg.Snapshot(1000);
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_DOUBLE_EQ(snap.Value("dev/events"), 3.0);
  EXPECT_DOUBLE_EQ(snap.Value("dev/busy_ns"), 500.0);  // gauge saw the snapshot's now
  const MetricSample* lat = snap.Find("dev/latency_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind, MetricSample::Kind::kHistogram);
  EXPECT_DOUBLE_EQ(lat->value, 3.0);  // sample count
  EXPECT_EQ(lat->summary.count, 3u);
  EXPECT_DOUBLE_EQ(lat->summary.min, 1.0);
  EXPECT_DOUBLE_EQ(lat->summary.mean, 2.0);
  EXPECT_DOUBLE_EQ(lat->summary.max, 3.0);

  // The registry holds references: later mutations show up in new snapshots.
  c.Add(7);
  EXPECT_DOUBLE_EQ(reg.Snapshot(1000).Value("dev/events"), 10.0);
}

TEST(MetricsRegistry, RejectsDuplicateAndEmptyNames) {
  MetricsRegistry reg;
  Counter c;
  reg.RegisterCounter("a/b", &c);
  EXPECT_DEATH(reg.RegisterCounter("a/b", &c), "duplicate metric name");
  EXPECT_DEATH(reg.RegisterGauge("a/b", [](Tick) { return 0.0; }),
               "duplicate metric name");
  EXPECT_DEATH(reg.RegisterCounter("", &c), "non-empty");
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndDeterministic) {
  Counter c1, c2, c3;
  MetricsRegistry reg;
  // Registered out of order on purpose.
  reg.RegisterCounter("z/last", &c3);
  reg.RegisterCounter("a/first", &c1);
  reg.RegisterCounter("m/middle", &c2);

  const MetricsSnapshot s1 = reg.Snapshot(42);
  const MetricsSnapshot s2 = reg.Snapshot(42);
  ASSERT_EQ(s1.size(), s2.size());
  std::vector<std::string> names;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.samples()[i].name, s2.samples()[i].name);
    EXPECT_DOUBLE_EQ(s1.samples()[i].value, s2.samples()[i].value);
    names.push_back(s1.samples()[i].name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a/first", "m/middle", "z/last"}));
  EXPECT_EQ(s1.NamesWithPrefix("m/"), (std::vector<std::string>{"m/middle"}));
}

TEST(MetricsRegistry, SnapshotJsonRoundTrips) {
  Counter c;
  c.Add(5);
  LogHistogram h;
  h.Record(2.5);
  MetricsRegistry reg;
  reg.RegisterCounter("dev/events", &c);
  reg.RegisterHistogram("dev/latency_ms", &h);
  reg.RegisterGauge("dev/util", [](Tick) { return 0.25; });

  JsonWriter w;
  reg.Snapshot(0).WriteJson(&w);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(w.str(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v["dev/events"].num_v, 5.0);
  EXPECT_DOUBLE_EQ(v["dev/util"].num_v, 0.25);
  ASSERT_TRUE(v["dev/latency_ms"].is_object());
  EXPECT_DOUBLE_EQ(v["dev/latency_ms"]["count"].num_v, 1.0);
  EXPECT_DOUBLE_EQ(v["dev/latency_ms"]["p50"].num_v, 2.5);
}

// The BusyTracker contracts the whole metrics layer leans on (also documented
// in src/sim/stats.h).
TEST(BusyTrackerEdgeCases, LeaveAtDepthZeroDies) {
  BusyTracker t;
  EXPECT_DEATH(t.Leave(10), "CHECK failed");
  t.Enter(0);
  t.Leave(5);
  EXPECT_DEATH(t.Leave(6), "CHECK failed");  // second Leave unbalanced again
}

TEST(BusyTrackerEdgeCases, BusyTimeBeforeOpenIntervalCountsOnlyClosedTime) {
  BusyTracker t;
  t.AddInterval(0, 100);
  t.Enter(500);  // open interval starts after the query point below
  EXPECT_EQ(t.BusyTime(200), 100u);  // open interval contributes nothing yet
  EXPECT_EQ(t.BusyTime(600), 200u);  // ... and 100 ns once now passes it
}

TEST(FlashAbacusConfigPresets, PaperAndSmallValidate) {
  EXPECT_EQ(FlashAbacusConfig::Paper().Validate(), "");
  EXPECT_EQ(FlashAbacusConfig::Small().Validate(), "");
  EXPECT_LT(FlashAbacusConfig::Small().model_scale, FlashAbacusConfig::Paper().model_scale);
}

TEST(FlashAbacusConfigPresets, ValidateRejectsBadGeometry) {
  FlashAbacusConfig cfg = FlashAbacusConfig::Paper();
  cfg.num_lwps = 2;  // Flashvisor + Storengine leave no worker
  EXPECT_NE(cfg.Validate(), "");

  cfg = FlashAbacusConfig::Paper();
  cfg.nand.channels = 0;
  EXPECT_NE(cfg.Validate(), "");

  cfg = FlashAbacusConfig::Paper();
  cfg.model_scale = 0.0;
  EXPECT_NE(cfg.Validate(), "");

  cfg = FlashAbacusConfig::Paper();
  cfg.pcie_gb_per_s = -1.0;
  EXPECT_NE(cfg.Validate(), "");
}

}  // namespace
}  // namespace fabacus

#include "src/sim/metrics.h"

#include <algorithm>

#include "src/sim/json.h"
#include "src/sim/log.h"

namespace fabacus {

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), name,
      [](const MetricSample& s, const std::string& n) { return s.name < n; });
  if (it == samples_.end() || it->name != name) {
    return nullptr;
  }
  return &*it;
}

double MetricsSnapshot::Value(const std::string& name) const {
  const MetricSample* s = Find(name);
  FAB_CHECK(s != nullptr) << "no metric named '" << name << "' in snapshot";
  return s->value;
}

std::vector<std::string> MetricsSnapshot::NamesWithPrefix(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const MetricSample& s : samples_) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(s.name);
    }
  }
  return out;
}

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  for (const MetricSample& s : samples_) {
    w->Key(s.name);
    if (s.kind == MetricSample::Kind::kHistogram) {
      WriteSummaryJson(w, s.summary);
    } else {
      w->Value(s.value);
    }
  }
  w->EndObject();
}

void MetricsRegistry::CheckNew(const std::string& name) const {
  FAB_CHECK(!name.empty()) << "metric name must be non-empty";
  FAB_CHECK(entries_.count(name) == 0) << "duplicate metric name '" << name << "'";
}

void MetricsRegistry::RegisterCounter(const std::string& name, const Counter* counter) {
  CheckNew(name);
  FAB_CHECK(counter != nullptr) << name;
  Entry e;
  e.kind = MetricSample::Kind::kCounter;
  e.counter = counter;
  entries_.emplace(name, std::move(e));
}

void MetricsRegistry::RegisterGauge(const std::string& name, std::function<double(Tick)> fn) {
  CheckNew(name);
  FAB_CHECK(fn != nullptr) << name;
  Entry e;
  e.kind = MetricSample::Kind::kGauge;
  e.gauge = std::move(fn);
  entries_.emplace(name, std::move(e));
}

void MetricsRegistry::RegisterHistogram(const std::string& name, const LogHistogram* sketch) {
  CheckNew(name);
  FAB_CHECK(sketch != nullptr) << name;
  Entry e;
  e.kind = MetricSample::Kind::kHistogram;
  e.sketch = sketch;
  entries_.emplace(name, std::move(e));
}

MetricsSnapshot MetricsRegistry::Snapshot(Tick now) const {
  MetricsSnapshot snap;
  snap.samples_.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {  // std::map: already name-sorted
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge(now);
        break;
      case MetricSample::Kind::kHistogram:
        s.summary = e.sketch->Summarize();
        s.value = static_cast<double>(s.summary.count);
        break;
    }
    snap.samples_.push_back(std::move(s));
  }
  return snap;
}

}  // namespace fabacus

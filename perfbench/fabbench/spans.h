// Host-time spans for the benchmark's traced run.
//
// The benchmark records a span around each call it makes into a simulator
// layer (Workload::Prepare, FlashAbacus::InstallData + Simulator::Run, ...).
// A span has a layer-qualified name ("core.install"), a start and end on the
// steady clock, the span that was open when it began (its parent) and the id
// of the workload unit it belongs to. Spans stay in memory and are written
// once, when the run ends. With no tracer installed a ScopedSpan costs one
// pointer test, so the untraced run measures the program alone.
#ifndef PERFBENCH_FABBENCH_SPANS_H_
#define PERFBENCH_FABBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fabbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  // "<layer>.<what>", a string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a unit's root span
    int unit = 0;
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int Begin(const char* name);
  void End(int index);
  void set_unit(int unit) { unit_ = unit; }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name, over the spans of `unit`: the summed self time (duration
  // minus the time covered by direct children), the summed duration, both in
  // seconds, and the number of spans.
  struct NameStats {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, NameStats> Summarize(int unit) const;

  // Writes every span as one JSON document: {"spans": [{name, start_ns,
  // end_ns, parent, unit}, ...]}. Returns false when the file cannot be
  // written.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int unit_ = 0;
};

// The tracer of the current run, or null when tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : tracer_(ActiveTracer()), index_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace fabbench

#endif  // PERFBENCH_FABBENCH_SPANS_H_

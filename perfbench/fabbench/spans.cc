#include "spans.h"

#include <cstdio>

namespace fabbench {
namespace {

Tracer* g_tracer = nullptr;

}  // namespace

Tracer* ActiveTracer() { return g_tracer; }
void SetActiveTracer(Tracer* tracer) { g_tracer = tracer; }

int Tracer::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.unit = unit_;
  s.start_ns = NowNs();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Spans are scoped, so the one ending is the innermost open span.
  open_.pop_back();
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize(int unit) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.unit == unit && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameStats> stats;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.unit != unit) {
      continue;
    }
    NameStats& st = stats[s.name];
    st.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    st.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    st.count += 1;
  }
  return stats;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"unit\": %d}%s\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, s.unit, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fabbench

// Minimal JSON support for the observability layer:
//  * JsonWriter — a small streaming writer (automatic commas, string escaping,
//    finite-number formatting) used by RunReport, MetricsSnapshot and the
//    Chrome-trace exporter.
//  * JsonValue / ParseJson — a compact recursive-descent parser, enough to
//    round-trip everything the writer emits. Tests use it to assert that
//    exported reports and traces are well-formed and self-consistent.
// No external dependencies; numbers are doubles (as in JSON itself).
#ifndef SRC_SIM_JSON_H_
#define SRC_SIM_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fabacus {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Writes an object key; must be followed by a value or Begin*().
  JsonWriter& Key(const std::string& name);

  JsonWriter& Value(double v);
  JsonWriter& Value(std::uint64_t v);
  JsonWriter& Value(std::int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }

  // Convenience: Key(name) + Value(v).
  template <typename T>
  JsonWriter& Field(const std::string& name, T v) {
    Key(name);
    return Value(v);
  }

  // The document so far. Valid once every Begin has been matched by an End.
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();
  void Raw(const std::string& s);

  enum class Scope { kObject, kArray };
  struct Frame {
    Scope scope;
    int emitted = 0;
    bool key_pending = false;
  };
  std::string out_;
  std::vector<Frame> stack_;
};

// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
void JsonEscape(const std::string& s, std::string* out);

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> array_v;
  // Insertion-ordered; lookup via Find().
  std::vector<std::pair<std::string, JsonValue>> object_v;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Find() + CHECK-style semantics for tests: returns a null value when
  // absent so chained reads do not crash.
  const JsonValue& operator[](const std::string& key) const;
};

// Parses `text` into `*out`. Returns false (and fills `*error` with a
// position-tagged message) on malformed input. Trailing whitespace is
// permitted; trailing garbage is not.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// --- Versioned documents ---------------------------------------------------
//
// Every JSON document the simulator emits — RunReport, FleetReport, BenchJson
// rows, the snapshot manifest — opens with the same "schema_version" field
// carrying this one number. Bump it when any of those layouts changes shape
// (adding fields is compatible and does not require a bump; renaming or
// removing does). Consumers (goldens, snapshot_ctl, external tooling) check
// this single version instead of per-document ad-hoc ones.
// v2: fleet reports moved latency/queue-depth aggregation onto bounded
// mergeable sketches (LogHistogram / BoundedTimeSeries) and added per-
// priority latency summaries; see docs/OBSERVABILITY.md "Streaming sketches".
// v3: RunReport gained the per-tenant QoS rows ("tenants") and the Jain's-
// index "fairness" object; see docs/QOS.md.
inline constexpr int kJsonSchemaVersion = 3;

// Recursively walks `before` vs. `after`, appending one
// "path: before -> after" line per leaf difference (object members compared
// by key, arrays element-wise plus a length line). At most `max_lines` lines
// are appended; the returned total difference count is not capped. This is
// the one diff used by the golden-report gate, fleet report comparisons and
// `snapshot_ctl diff`.
int JsonFieldDiff(const JsonValue& before, const JsonValue& after, const std::string& path,
                  std::vector<std::string>* lines, int max_lines = 40);

// Parses two documents and diffs them. Unparseable input counts as one
// difference with a diagnostic line.
int JsonFieldDiffText(const std::string& before, const std::string& after,
                      std::vector<std::string>* lines, int max_lines = 40);

}  // namespace fabacus

#endif  // SRC_SIM_JSON_H_

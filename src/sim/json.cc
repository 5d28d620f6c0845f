#include "src/sim/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/sim/log.h"

namespace fabacus {

void JsonEscape(const std::string& s, std::string* out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void JsonWriter::Raw(const std::string& s) { out_ += s; }

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    return;
  }
  Frame& top = stack_.back();
  if (top.scope == Scope::kObject) {
    FAB_CHECK(top.key_pending) << "JSON object value without a Key()";
    top.key_pending = false;
  } else if (top.emitted > 0) {
    out_ += ',';
  }
  ++top.emitted;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back({Scope::kObject});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  FAB_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject);
  FAB_CHECK(!stack_.back().key_pending) << "dangling Key() at EndObject";
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back({Scope::kArray});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  FAB_CHECK(!stack_.empty() && stack_.back().scope == Scope::kArray);
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  FAB_CHECK(!stack_.empty() && stack_.back().scope == Scope::kObject)
      << "Key() outside an object";
  Frame& top = stack_.back();
  FAB_CHECK(!top.key_pending) << "two Key() calls in a row";
  if (top.emitted > 0) {
    out_ += ',';
  }
  out_ += '"';
  JsonEscape(name, &out_);
  out_ += "\":";
  top.key_pending = true;
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  BeforeValue();
  out_ += '"';
  JsonEscape(v, &out_);
  out_ += '"';
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_v) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

const JsonValue& JsonValue::operator[](const std::string& key) const {
  static const JsonValue kNull;
  const JsonValue* v = Find(key);
  return v == nullptr ? kNull : *v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return true;
  }

 private:
  bool Fail(const std::string& msg) {
    if (error_ != nullptr) {
      *error_ = msg + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) {
      return Fail(std::string("expected '") + lit + "'");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str_v);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_v = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_v = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->object_v.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->array_v.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return Fail("dangling escape");
        }
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            const unsigned code =
                static_cast<unsigned>(std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            // ASCII-range escapes only (all the writer emits); others become
            // a UTF-8 encoded code point without surrogate-pair handling.
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      return Fail("invalid number");
    }
    out->type = JsonValue::Type::kNumber;
    out->num_v = v;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text, error).Parse(out);
}

namespace {

std::string RenderLeaf(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return v.bool_v ? "true" : "false";
    case JsonValue::Type::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.num_v);
      return buf;
    }
    case JsonValue::Type::kString:
      return "\"" + v.str_v + "\"";
    case JsonValue::Type::kArray:
      return "<array of " + std::to_string(v.array_v.size()) + ">";
    case JsonValue::Type::kObject:
      return "<object of " + std::to_string(v.object_v.size()) + ">";
  }
  return "?";
}

void AddDiffLine(std::vector<std::string>* lines, int max_lines, const std::string& line) {
  if (static_cast<int>(lines->size()) < max_lines) {
    lines->push_back(line);
  }
}

}  // namespace

int JsonFieldDiff(const JsonValue& before, const JsonValue& after, const std::string& path,
                  std::vector<std::string>* lines, int max_lines) {
  if (before.type != after.type) {
    AddDiffLine(lines, max_lines, path + ": " + RenderLeaf(before) + " -> " + RenderLeaf(after));
    return 1;
  }
  switch (before.type) {
    case JsonValue::Type::kObject: {
      int diffs = 0;
      for (const auto& [key, bv] : before.object_v) {
        const JsonValue* av = after.Find(key);
        if (av == nullptr) {
          AddDiffLine(lines, max_lines, path + "/" + key + ": removed (was " + RenderLeaf(bv) + ")");
          ++diffs;
          continue;
        }
        diffs += JsonFieldDiff(bv, *av, path + "/" + key, lines, max_lines);
      }
      for (const auto& [key, av] : after.object_v) {
        if (before.Find(key) == nullptr) {
          AddDiffLine(lines, max_lines, path + "/" + key + ": added (" + RenderLeaf(av) + ")");
          ++diffs;
        }
      }
      return diffs;
    }
    case JsonValue::Type::kArray: {
      int diffs = 0;
      if (before.array_v.size() != after.array_v.size()) {
        AddDiffLine(lines, max_lines,
                    path + ": array length " + std::to_string(before.array_v.size()) + " -> " +
                        std::to_string(after.array_v.size()));
        ++diffs;
      }
      const std::size_t n = std::min(before.array_v.size(), after.array_v.size());
      for (std::size_t i = 0; i < n; ++i) {
        diffs += JsonFieldDiff(before.array_v[i], after.array_v[i],
                               path + "[" + std::to_string(i) + "]", lines, max_lines);
      }
      return diffs;
    }
    case JsonValue::Type::kNumber:
      if (before.num_v != after.num_v) {
        AddDiffLine(lines, max_lines, path + ": " + RenderLeaf(before) + " -> " + RenderLeaf(after));
        return 1;
      }
      return 0;
    case JsonValue::Type::kString:
      if (before.str_v != after.str_v) {
        AddDiffLine(lines, max_lines, path + ": " + RenderLeaf(before) + " -> " + RenderLeaf(after));
        return 1;
      }
      return 0;
    case JsonValue::Type::kBool:
      if (before.bool_v != after.bool_v) {
        AddDiffLine(lines, max_lines, path + ": " + RenderLeaf(before) + " -> " + RenderLeaf(after));
        return 1;
      }
      return 0;
    case JsonValue::Type::kNull:
      return 0;
  }
  return 0;
}

int JsonFieldDiffText(const std::string& before, const std::string& after,
                      std::vector<std::string>* lines, int max_lines) {
  JsonValue bv, av;
  std::string berr, aerr;
  if (!ParseJson(before, &bv, &berr)) {
    AddDiffLine(lines, max_lines, "before document is not JSON: " + berr);
    return 1;
  }
  if (!ParseJson(after, &av, &aerr)) {
    AddDiffLine(lines, max_lines, "after document is not JSON: " + aerr);
    return 1;
  }
  return JsonFieldDiff(bv, av, "", lines, max_lines);
}

}  // namespace fabacus

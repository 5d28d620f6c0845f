#include "src/sim/snapshot.h"

#include <cstdio>
#include <cstring>

#include "src/sim/json.h"

namespace fabacus {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

}  // namespace

// --- StateWriter -----------------------------------------------------------

void StateWriter::U32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void StateWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void StateWriter::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void StateWriter::Str(const std::string& s) {
  U64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void StateWriter::Bytes(const std::uint8_t* data, std::size_t n) {
  out_.insert(out_.end(), data, data + n);
}

// --- StateReader -----------------------------------------------------------

bool StateReader::Take(std::size_t n, const std::uint8_t** out) {
  if (!ok()) {
    return false;
  }
  if (n > size_ - pos_) {
    Fail("truncated stream: need " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + ", have " + std::to_string(size_ - pos_));
    return false;
  }
  *out = data_ + pos_;
  pos_ += n;
  return true;
}

bool StateReader::TakeCount(std::size_t elem_size, std::uint64_t* count) {
  const std::uint64_t n = U64();
  if (!ok()) {
    return false;
  }
  if (elem_size != 0 && n > (size_ - pos_) / elem_size) {
    Fail("corrupt length prefix " + std::to_string(n) + " at offset " +
         std::to_string(pos_));
    return false;
  }
  *count = n;
  return true;
}

void StateReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
  pos_ = size_;  // poison: every later Take() sees zero bytes remaining
}

std::uint8_t StateReader::U8() {
  const std::uint8_t* p;
  return Take(1, &p) ? p[0] : 0;
}

std::uint32_t StateReader::U32() {
  const std::uint8_t* p;
  if (!Take(4, &p)) {
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t StateReader::U64() {
  const std::uint8_t* p;
  if (!Take(8, &p)) {
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

double StateReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok() ? v : 0.0;
}

std::string StateReader::Str() {
  std::uint64_t n;
  if (!TakeCount(1, &n)) {
    return {};
  }
  const std::uint8_t* p;
  if (!Take(static_cast<std::size_t>(n), &p)) {
    return {};
  }
  return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
}

std::vector<std::uint8_t> StateReader::VecU8() {
  std::uint64_t n;
  if (!TakeCount(1, &n)) {
    return {};
  }
  const std::uint8_t* p;
  if (!Take(static_cast<std::size_t>(n), &p)) {
    return {};
  }
  return std::vector<std::uint8_t>(p, p + n);
}

// --- StateIO ---------------------------------------------------------------

void StateIO::Fail(const std::string& message) {
  FAB_CHECK(!saving()) << "snapshot of invalid state: " << message;
  r_->Fail(message);
}

void StateIO::U8(std::uint8_t& v) {
  if (saving()) {
    w_->U8(v);
  } else {
    v = r_->U8();
  }
}

void StateIO::Bool(bool& v) {
  if (saving()) {
    w_->Bool(v);
  } else {
    v = r_->Bool();
  }
}

void StateIO::U32(std::uint32_t& v) {
  if (saving()) {
    w_->U32(v);
  } else {
    v = r_->U32();
  }
}

void StateIO::U64(std::uint64_t& v) {
  if (saving()) {
    w_->U64(v);
  } else {
    v = r_->U64();
  }
}

void StateIO::I32(std::int32_t& v) {
  if (saving()) {
    w_->I32(v);
  } else {
    v = r_->I32();
  }
}

void StateIO::F64(double& v) {
  if (saving()) {
    w_->F64(v);
  } else {
    v = r_->F64();
  }
}

void StateIO::Str(std::string& v) {
  if (saving()) {
    w_->Str(v);
  } else {
    v = r_->Str();
  }
}

bool StateIO::Count(std::uint64_t n, const std::string& what) {
  std::uint64_t stored = n;
  U64(stored);
  if (ok() && stored != n) {
    Fail(what + " mismatch");
  }
  return ok();
}

void StateIO::FixedVecU32(std::vector<std::uint32_t>& v, const std::string& what) {
  if (Count(v.size(), what)) {
    for (std::uint32_t& x : v) {
      U32(x);
    }
  }
}

void StateIO::FixedVecU64(std::vector<std::uint64_t>& v, const std::string& what) {
  if (Count(v.size(), what)) {
    for (std::uint64_t& x : v) {
      U64(x);
    }
  }
}

void StateIO::FixedVecI32(std::vector<std::int32_t>& v, const std::string& what) {
  if (Count(v.size(), what)) {
    for (std::int32_t& x : v) {
      I32(x);
    }
  }
}

void StateIO::FixedBits(std::vector<bool>& v, const std::string& what) {
  if (Count(v.size(), what)) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::uint8_t bit = v[i] ? 1 : 0;
      U8(bit);
      if (!saving()) {
        v[i] = bit != 0;
      }
    }
  }
}

// --- SnapshotBuilder -------------------------------------------------------

void SnapshotBuilder::SetMeta(const std::string& key, const std::string& value) {
  meta_str_.emplace_back(key, value);
}

void SnapshotBuilder::SetMeta(const std::string& key, double value) {
  meta_num_.emplace_back(key, value);
}

void SnapshotBuilder::FlushOpen() const {
  auto* self = const_cast<SnapshotBuilder*>(this);
  if (self->open_index_ >= 0) {
    self->sections_[static_cast<std::size_t>(self->open_index_)].payload =
        self->open_.TakeBuffer();
    self->open_index_ = -1;
  }
}

StateWriter& SnapshotBuilder::AddSection(const std::string& name, int version) {
  FlushOpen();
  for (const Section& s : sections_) {
    FAB_CHECK(s.name != name) << "duplicate snapshot section " << name;
  }
  sections_.push_back(Section{name, version, {}});
  open_index_ = static_cast<int>(sections_.size()) - 1;
  open_ = StateWriter();
  return open_;
}

void SnapshotBuilder::AddComponent(const Snapshottable& s) {
  StateWriter& w = AddSection(s.StateName(), s.StateVersion());
  s.SaveState(w);
}

void SnapshotBuilder::AddBlobSection(const std::string& name, int version,
                                     std::vector<std::uint8_t> payload) {
  AddSection(name, version);
  FlushOpen();
  sections_.back().payload = std::move(payload);
}

std::string SnapshotBuilder::ManifestJson() const {
  FlushOpen();
  JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", kJsonSchemaVersion);
  w.Field("kind", kind_);
  for (const auto& [k, v] : meta_str_) {
    w.Field(k, v);
  }
  for (const auto& [k, v] : meta_num_) {
    w.Field(k, v);
  }
  w.Key("sections").BeginArray();
  for (const Section& s : sections_) {
    w.BeginObject()
        .Field("name", s.name)
        .Field("version", s.version)
        .Field("bytes", static_cast<std::uint64_t>(s.payload.size()))
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::vector<std::uint8_t> SnapshotBuilder::Serialize() const {
  FlushOpen();
  const std::string manifest = ManifestJson();
  StateWriter w;
  w.Bytes(reinterpret_cast<const std::uint8_t*>(SnapshotFile::kMagic), 8);
  w.U32(SnapshotFile::kContainerVersion);
  w.U32(static_cast<std::uint32_t>(manifest.size()));
  w.Bytes(reinterpret_cast<const std::uint8_t*>(manifest.data()), manifest.size());
  w.U32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    FAB_CHECK_LE(s.name.size(), 0xffffu) << "section name too long";
    w.U32(static_cast<std::uint32_t>(s.name.size()));
    w.Bytes(reinterpret_cast<const std::uint8_t*>(s.name.data()), s.name.size());
    w.U32(static_cast<std::uint32_t>(s.version));
    w.U64(s.payload.size());
    w.Bytes(s.payload.data(), s.payload.size());
  }
  std::vector<std::uint8_t> out = w.TakeBuffer();
  const std::uint64_t checksum = Fnv1a(out.data(), out.size());
  StateWriter tail;
  tail.U64(checksum);
  out.insert(out.end(), tail.buffer().begin(), tail.buffer().end());
  return out;
}

bool SnapshotBuilder::WriteFile(const std::string& path, std::string* error) const {
  const std::vector<std::uint8_t> bytes = Serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

// --- SnapshotFile ----------------------------------------------------------

bool SnapshotFile::Load(const std::string& path, SnapshotFile* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    *error = "read error on " + path;
    return false;
  }
  if (!Parse(bytes, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

bool SnapshotFile::Parse(const std::vector<std::uint8_t>& bytes, SnapshotFile* out,
                         std::string* error) {
  if (bytes.size() < 8 + 4 + 8) {
    *error = "not a snapshot: file too short (" + std::to_string(bytes.size()) + " bytes)";
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, 8) != 0) {
    *error = "not a snapshot: bad magic";
    return false;
  }
  const std::size_t body = bytes.size() - 8;
  StateReader tail(bytes.data() + body, 8);
  const std::uint64_t stored = tail.U64();
  const std::uint64_t computed = Fnv1a(bytes.data(), body);
  if (stored != computed) {
    *error = "corrupt snapshot: checksum mismatch";
    return false;
  }

  StateReader r(bytes.data() + 8, body - 8);
  const std::uint32_t container_version = r.U32();
  if (container_version != kContainerVersion) {
    *error = "unsupported snapshot container version " + std::to_string(container_version) +
             " (this build reads version " + std::to_string(kContainerVersion) + ")";
    return false;
  }
  const std::uint32_t manifest_len = r.U32();
  std::string manifest;
  if (manifest_len > r.remaining()) {
    *error = "corrupt snapshot: manifest length overruns file";
    return false;
  }
  manifest.resize(manifest_len);
  for (std::uint32_t i = 0; i < manifest_len; ++i) {
    manifest[i] = static_cast<char>(r.U8());
  }

  JsonValue mv;
  std::string jerr;
  if (!ParseJson(manifest, &mv, &jerr)) {
    *error = "corrupt snapshot: manifest is not JSON (" + jerr + ")";
    return false;
  }
  const JsonValue* kind = mv.Find("kind");
  if (kind == nullptr || !kind->is_string()) {
    *error = "corrupt snapshot: manifest lacks a \"kind\"";
    return false;
  }

  std::vector<Section> sections;
  const std::uint32_t count = r.U32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    Section s;
    const std::uint32_t name_len = r.U32();
    if (name_len > r.remaining()) {
      r.Fail("section name overruns file");
      break;
    }
    s.name.resize(name_len);
    for (std::uint32_t j = 0; j < name_len; ++j) {
      s.name[j] = static_cast<char>(r.U8());
    }
    s.version = static_cast<int>(r.U32());
    const std::uint64_t payload_len = r.U64();
    if (payload_len > r.remaining()) {
      r.Fail("section " + s.name + " overruns file");
      break;
    }
    s.payload.resize(static_cast<std::size_t>(payload_len));
    for (std::uint64_t j = 0; j < payload_len; ++j) {
      s.payload[static_cast<std::size_t>(j)] = r.U8();
    }
    sections.push_back(std::move(s));
  }
  if (!r.ok()) {
    *error = "corrupt snapshot: " + r.error();
    return false;
  }
  if (!r.AtEnd()) {
    *error = "corrupt snapshot: " + std::to_string(r.remaining()) + " trailing bytes";
    return false;
  }

  out->kind_ = kind->str_v;
  out->manifest_json_ = std::move(manifest);
  out->sections_ = std::move(sections);
  return true;
}

const SnapshotFile::Section* SnapshotFile::Find(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

StateReader SnapshotFile::Open(const std::string& name, int expected_version) const {
  const Section* s = Find(name);
  if (s == nullptr) {
    StateReader r(empty_.data(), 0);
    r.Fail("snapshot has no section \"" + name + "\"");
    return r;
  }
  if (s->version != expected_version) {
    StateReader r(empty_.data(), 0);
    r.Fail("section \"" + name + "\" is version " + std::to_string(s->version) +
           ", this build expects version " + std::to_string(expected_version));
    return r;
  }
  return StateReader(s->payload.data(), s->payload.size());
}

bool SnapshotFile::Restore(Snapshottable* s, std::string* error) const {
  StateReader r = Open(s->StateName(), s->StateVersion());
  if (r.ok()) {
    s->LoadState(r);
  }
  if (!r.ok()) {
    *error = "restoring \"" + s->StateName() + "\": " + r.error();
    return false;
  }
  if (!r.AtEnd()) {
    *error = "restoring \"" + s->StateName() + "\": " + std::to_string(r.remaining()) +
             " trailing bytes (schema drift without a version bump?)";
    return false;
  }
  return true;
}

}  // namespace fabacus

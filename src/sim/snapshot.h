// Versioned whole-simulator checkpoint/restore (see docs/SNAPSHOT.md).
//
// Every stateful component walks its persistent state once, in one method:
//
//   Persist(StateIO&)
//
// StateIO wraps either a StateWriter (saving) or a StateReader (loading), so
// the same field list both writes a section and restores it. Plain members
// (counters, busy trackers, resources, the byte store) expose Persist
// directly; top-level components implement the virtual Snapshottable
// interface, which a SnapshotBuilder serializes as named sections. State is written to a flat
// little-endian byte stream; the container that holds the streams is a
// single-file format:
//
//   magic "FABSNAP1" | u32 container version | u32 manifest length |
//   manifest JSON | u32 section count |
//   { u16 name length | name | u32 schema version | u64 payload length |
//     payload } * | u64 FNV-1a checksum over everything before it
//
// The JSON manifest duplicates the section directory (name/version/bytes)
// plus caller-supplied metadata (snapshot kind, config fingerprint, sim
// clock), so `tools/snapshot_ctl` can inspect and diff snapshots without
// decoding any payload.
//
// Failure discipline: writing is infallible (CHECKs on misuse only); reading
// is defensive. A truncated, corrupt, or version-mismatched file never
// CHECK-fails — StateReader latches the first error, every later read
// returns zeroes, and the caller observes one clean diagnostic via ok() /
// error(). Persist implementations therefore only need to check io.ok() at
// their own CHECK-relevant boundaries, and must bound every loaded value
// that indexes or sizes a container.
#ifndef SRC_SIM_SNAPSHOT_H_
#define SRC_SIM_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/log.h"

namespace fabacus {

// Append-only little-endian encoder for one component's state.
class StateWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);
  void Bytes(const std::uint8_t* data, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const { return out_; }
  std::vector<std::uint8_t> TakeBuffer() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

// Sequential decoder over a StateWriter stream. Never aborts on malformed
// input: the first out-of-bounds or invalid read latches error() and every
// subsequent read returns a zero value.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit StateReader(const std::vector<std::uint8_t>& buf)
      : StateReader(buf.data(), buf.size()) {}

  std::uint8_t U8();
  bool Bool() { return U8() != 0; }
  std::uint32_t U32();
  std::uint64_t U64();
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  double F64();
  std::string Str();
  // A U64 length, then that many bytes.
  std::vector<std::uint8_t> VecU8();

  // True until the first malformed read (or explicit Fail()).
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Latches a caller-detected consistency error (first one wins).
  void Fail(const std::string& message);

  // Everything consumed exactly once? Useful as an end-of-section check.
  bool AtEnd() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool Take(std::size_t n, const std::uint8_t** out);
  // Reads a length prefix and rejects lengths larger than the bytes left —
  // a corrupt length must not drive a multi-gigabyte allocation.
  bool TakeCount(std::size_t elem_size, std::uint64_t* count);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string error_;
};

// One pass over a component's state, in either direction. Persist(StateIO&)
// names each field once: while saving(), every call appends the field's
// current value; while loading, it overwrites the field with the next value
// of the stream (StateReader's discipline: after the first error every read
// yields zero). Fields whose encoding differs by direction (heaps drained in
// sorted order, sparse maps, state rebuilt after a load) branch on saving().
class StateIO {
 public:
  explicit StateIO(StateWriter& w) : w_(&w) {}
  explicit StateIO(StateReader& r) : r_(&r) {}

  bool saving() const { return w_ != nullptr; }
  // False once a load has latched an error; always true while saving.
  bool ok() const { return saving() || r_->ok(); }
  // Latches a load error (first one wins). While saving it is a CHECK
  // failure: the live state broke an invariant its loader enforces.
  void Fail(const std::string& message);

  void U8(std::uint8_t& v);
  void Bool(bool& v);
  void U32(std::uint32_t& v);
  void U64(std::uint64_t& v);
  void I32(std::int32_t& v);
  void F64(double& v);
  void Str(std::string& v);

  // A count the config fixes (banks, ports, packages, ...), as a U64. A
  // loaded value other than `n` fails "<what> mismatch". Returns ok().
  bool Count(std::uint64_t n, const std::string& what);

  // Config-sized vectors: a U64 length, then the elements (FixedBits as one
  // byte of 0/1 each). A loaded length other than v.size() fails "<what>
  // mismatch" and leaves `v` alone.
  void FixedVecU32(std::vector<std::uint32_t>& v, const std::string& what);
  void FixedVecU64(std::vector<std::uint64_t>& v, const std::string& what);
  void FixedVecI32(std::vector<std::int32_t>& v, const std::string& what);
  void FixedBits(std::vector<bool>& v, const std::string& what);

  // A variable-length list: a U64 count, then `each(element)` per element.
  // A load grows `v` one decoded element at a time, so a corrupt count stops
  // at the end of the stream instead of sizing an allocation.
  template <typename T, typename Each>
  void Seq(std::vector<T>& v, Each each) {
    std::uint64_t n = v.size();
    U64(n);
    if (saving()) {
      for (T& e : v) {
        each(e);
      }
      return;
    }
    v.clear();
    for (std::uint64_t i = 0; i < n && ok(); ++i) {
      each(v.emplace_back());
    }
  }

  StateWriter& writer() { return *w_; }
  StateReader& reader() { return *r_; }

 private:
  StateWriter* w_ = nullptr;
  StateReader* r_ = nullptr;
};

// Entry points for objects that expose Persist(StateIO&). Saving never
// writes to `obj`: StateIO only reads a field while saving, and Persist
// stores a value decoded through a local only when loading.
template <typename T>
void SaveTo(const T& obj, StateWriter& w) {
  StateIO io(w);
  const_cast<T&>(obj).Persist(io);
}
template <typename T>
void LoadFrom(T& obj, StateReader& r) {
  StateIO io(r);
  obj.Persist(io);
}

// The uniform state interface of top-level simulator components. A
// component's schema version travels with its section; a load only runs
// when the stored version matches StateVersion() (the container rejects
// mismatches up front — there are no cross-version migrations yet, see
// docs/SNAPSHOT.md for the compat policy).
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;

  // Stable section name, e.g. "flashvisor" or "nand/pkg0".
  virtual std::string StateName() const = 0;
  // Bump when the Persist layout changes shape.
  virtual int StateVersion() const { return 1; }
  // Writes or restores the section (see StateIO). Malformed input must
  // latch io.Fail(...) rather than abort.
  virtual void Persist(StateIO& io) = 0;

  void SaveState(StateWriter& w) const { SaveTo(*this, w); }
  void LoadState(StateReader& r) { LoadFrom(*this, r); }
};

// Assembles named sections plus manifest metadata and writes the container.
class SnapshotBuilder {
 public:
  // `kind` names the snapshot flavor ("device", "fleet-shard", "fleet").
  explicit SnapshotBuilder(std::string kind) : kind_(std::move(kind)) {}

  // Manifest metadata (string or numeric), surfaced verbatim by inspect/diff.
  void SetMeta(const std::string& key, const std::string& value);
  void SetMeta(const std::string& key, double value);

  // Appends a section; the returned writer stays valid until the next call.
  StateWriter& AddSection(const std::string& name, int version);
  // Captures `s` as a section named s->StateName() at s->StateVersion().
  void AddComponent(const Snapshottable& s);

  // Embeds `file_bytes` (a complete nested snapshot container) as an opaque
  // section — how fleet snapshots fan in their per-shard device snapshots.
  void AddBlobSection(const std::string& name, int version,
                      std::vector<std::uint8_t> payload);

  // The manifest JSON that WriteFile will embed (sections recorded so far).
  std::string ManifestJson() const;

  // Serializes the container. False (with *error filled) on I/O failure.
  bool WriteFile(const std::string& path, std::string* error) const;
  // In-memory form of WriteFile, for nesting and tests.
  std::vector<std::uint8_t> Serialize() const;

 private:
  struct Section {
    std::string name;
    int version = 1;
    std::vector<std::uint8_t> payload;
  };

  std::string kind_;
  std::vector<std::pair<std::string, std::string>> meta_str_;
  std::vector<std::pair<std::string, double>> meta_num_;
  std::vector<Section> sections_;
  StateWriter open_;      // writer handed out by the last AddSection
  int open_index_ = -1;   // section the open_ writer belongs to
  void FlushOpen() const;
};

// A parsed snapshot container. Load never aborts: truncated files, bad
// magic, checksum mismatches and malformed manifests all come back as a
// false return plus a one-line diagnostic.
class SnapshotFile {
 public:
  struct Section {
    std::string name;
    int version = 1;
    std::vector<std::uint8_t> payload;
  };

  static constexpr char kMagic[9] = "FABSNAP1";
  static constexpr std::uint32_t kContainerVersion = 1;

  static bool Load(const std::string& path, SnapshotFile* out, std::string* error);
  static bool Parse(const std::vector<std::uint8_t>& bytes, SnapshotFile* out,
                    std::string* error);

  const std::string& kind() const { return kind_; }
  const std::string& manifest_json() const { return manifest_json_; }
  const std::vector<Section>& sections() const { return sections_; }

  // nullptr when absent.
  const Section* Find(const std::string& name) const;

  // Opens `name` for reading, enforcing presence and an exact version match.
  // On failure the returned reader is empty with error() latched.
  StateReader Open(const std::string& name, int expected_version) const;

  // Feeds the named section into `s` (version check + LoadState + trailing
  // bytes check). Returns false with *error filled on any failure.
  bool Restore(Snapshottable* s, std::string* error) const;

 private:
  std::string kind_;
  std::string manifest_json_;
  std::vector<Section> sections_;
  std::vector<std::uint8_t> empty_;
};

}  // namespace fabacus

#endif  // SRC_SIM_SNAPSHOT_H_

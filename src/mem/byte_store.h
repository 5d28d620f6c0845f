// Sparse byte-addressed backing store. Used for the contents of flash pages
// and host SSD files: regions only consume host RAM once real data is written
// to them; unwritten regions read back as zero. This lets the simulator model
// multi-GB devices while tests still verify real data round-trips.
#ifndef SRC_MEM_BYTE_STORE_H_
#define SRC_MEM_BYTE_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/log.h"

namespace fabacus {

class StateIO;

class ByteStore {
 public:
  explicit ByteStore(std::uint64_t chunk_size) : chunk_size_(chunk_size) {
    FAB_CHECK_GT(chunk_size_, 0u);
  }

  void Write(std::uint64_t offset, const void* data, std::uint64_t len);
  void Read(std::uint64_t offset, void* out, std::uint64_t len) const;

  // Zero-fills [offset, offset+len) and releases chunks fully covered. A
  // released chunk (with its hash-map node) is kept as a spare for the next
  // Write that needs one, so erase/write cycles neither free nor allocate
  // host memory.
  void Erase(std::uint64_t offset, std::uint64_t len);

  // The chunk_size() bytes of chunk `index`, or nullptr when the chunk holds
  // no data (it reads back as zeros). Valid until that chunk is erased.
  const std::uint8_t* ChunkData(std::uint64_t index) const;

  // Number of chunks with real data (for memory-footprint assertions).
  std::size_t allocated_chunks() const { return chunks_.size(); }
  // Released chunks waiting for reuse; live plus spare chunks never exceed
  // the earlier high-water mark of live chunks.
  std::size_t spare_chunks() const { return spare_.size(); }
  std::uint64_t chunk_size() const { return chunk_size_; }

  // Checkpoint/restore: chunks are emitted in ascending index order so the
  // stream is deterministic regardless of hash-map iteration order.
  void Persist(StateIO& io);

 private:
  using ChunkMap = std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>;

  // Maps chunk `index` (not yet mapped), reusing a spare if there is one; the
  // chunk's contents are unspecified either way.
  ChunkMap::iterator Insert(std::uint64_t index);

  std::uint64_t chunk_size_;
  ChunkMap chunks_;
  std::vector<ChunkMap::node_type> spare_;
};

}  // namespace fabacus

#endif  // SRC_MEM_BYTE_STORE_H_

#include "src/mem/byte_store.h"

#include <algorithm>
#include <cstring>

#include "src/sim/snapshot.h"

namespace fabacus {

ByteStore::ChunkMap::iterator ByteStore::Insert(std::uint64_t index) {
  if (spare_.empty()) {
    return chunks_.emplace(index, std::make_unique_for_overwrite<std::uint8_t[]>(chunk_size_))
        .first;
  }
  ChunkMap::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = index;
  return chunks_.insert(std::move(node)).position;
}

void ByteStore::Write(std::uint64_t offset, const void* data, std::uint64_t len) {
  const std::uint8_t* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    auto it = chunks_.find(chunk_idx);
    if (it == chunks_.end()) {
      it = Insert(chunk_idx);
      // Only the bytes this write leaves untouched must read back as zero.
      std::memset(it->second.get(), 0, in_chunk);
      std::memset(it->second.get() + in_chunk + n, 0, chunk_size_ - in_chunk - n);
    }
    std::memcpy(it->second.get() + in_chunk, src, n);
    src += n;
    offset += n;
    len -= n;
  }
}

void ByteStore::Read(std::uint64_t offset, void* out, std::uint64_t len) const {
  std::uint8_t* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    const std::uint8_t* chunk = ChunkData(chunk_idx);
    if (chunk == nullptr) {
      std::memset(dst, 0, n);
    } else {
      std::memcpy(dst, chunk + in_chunk, n);
    }
    dst += n;
    offset += n;
    len -= n;
  }
}

void ByteStore::Erase(std::uint64_t offset, std::uint64_t len) {
  while (len > 0) {
    const std::uint64_t chunk_idx = offset / chunk_size_;
    const std::uint64_t in_chunk = offset % chunk_size_;
    const std::uint64_t n = std::min<std::uint64_t>(len, chunk_size_ - in_chunk);
    auto it = chunks_.find(chunk_idx);
    if (it != chunks_.end()) {
      if (in_chunk == 0 && n == chunk_size_) {
        spare_.push_back(chunks_.extract(it));
      } else {
        std::memset(it->second.get() + in_chunk, 0, n);
      }
    }
    offset += n;
    len -= n;
  }
}

const std::uint8_t* ByteStore::ChunkData(std::uint64_t index) const {
  auto it = chunks_.find(index);
  return it == chunks_.end() ? nullptr : it->second.get();
}

void ByteStore::Persist(StateIO& io) {
  if (!io.Count(chunk_size_, "ByteStore chunk size")) {
    return;
  }
  // Sparse chunks: (index, length-prefixed bytes) in ascending index order.
  if (io.saving()) {
    std::vector<std::uint64_t> indices;
    indices.reserve(chunks_.size());
    for (const auto& [idx, chunk] : chunks_) {
      indices.push_back(idx);
    }
    std::sort(indices.begin(), indices.end());
    StateWriter& w = io.writer();
    w.U64(indices.size());
    for (const std::uint64_t idx : indices) {
      w.U64(idx);
      // The length-prefixed layout StateReader::VecU8 reads.
      w.U64(chunk_size_);
      w.Bytes(chunks_.at(idx).get(), chunk_size_);
    }
    return;
  }
  StateReader& r = io.reader();
  while (!chunks_.empty()) {
    spare_.push_back(chunks_.extract(chunks_.begin()));
  }
  const std::uint64_t n = r.U64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const std::uint64_t idx = r.U64();
    const std::vector<std::uint8_t> bytes = r.VecU8();
    if (r.ok() && bytes.size() != chunk_size_) {
      r.Fail("ByteStore chunk " + std::to_string(idx) + " has wrong size");
      return;
    }
    if (r.ok()) {
      auto it = chunks_.find(idx);
      if (it == chunks_.end()) {
        it = Insert(idx);
      }
      std::memcpy(it->second.get(), bytes.data(), chunk_size_);
    }
  }
}

}  // namespace fabacus

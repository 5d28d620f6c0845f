#include "src/host/nvme_ssd.h"

#include "src/sim/log.h"

namespace fabacus {

namespace {
// Host bytes per chunk of the file store. Files sit at model-size offsets and
// only a functional prefix of each carries data (a 3 KiB vector, a 100-400 KiB
// operand), so a prefix rarely shares a chunk with another file's bytes, and
// ByteStore zero-fills whatever part of a fresh chunk a write leaves
// uncovered. At one page per chunk a file costs the host just the pages its
// bytes touch; 1 MiB chunks zero-filled (and faulted in) a whole MiB per
// file. The timing model reads only volumes, so no simulated result moves.
constexpr std::uint64_t kFileChunkBytes = 4 * 1024;
}  // namespace

NvmeSsd::NvmeSsd(const NvmeConfig& config)
    : config_(config),
      channel_("nvme", config.read_gb_per_s, config.command_latency),
      data_(kFileChunkBytes) {}

bool NvmeSsd::CreateFile(const std::string& name, std::uint64_t bytes) {
  if (alloc_cursor_ + bytes > config_.capacity_bytes) {
    return false;
  }
  auto it = files_.find(name);
  if (it != files_.end()) {
    // Truncate-in-place when it fits; otherwise reallocate at the cursor.
    if (bytes <= it->second.bytes) {
      it->second.bytes = bytes;
      return true;
    }
    files_.erase(it);
  }
  files_[name] = FileExtent{alloc_cursor_, bytes};
  alloc_cursor_ += bytes;
  return true;
}

void NvmeSsd::InstallFile(const std::string& name, std::uint64_t file_bytes, const void* data,
                          std::uint64_t data_bytes) {
  FAB_CHECK(CreateFile(name, file_bytes)) << "NVMe capacity exhausted installing " << name;
  FAB_CHECK_LE(data_bytes, file_bytes);
  if (data != nullptr && data_bytes > 0) {
    data_.Write(Extent(name).base, data, data_bytes);
  }
}

const NvmeSsd::FileExtent& NvmeSsd::Extent(const std::string& name) const {
  auto it = files_.find(name);
  FAB_CHECK(it != files_.end()) << "no such file: " << name;
  return it->second;
}

Tick NvmeSsd::Read(Tick now, const std::string& name, std::uint64_t offset,
                   std::uint64_t bytes, void* data) {
  const FileExtent& ext = Extent(name);
  FAB_CHECK_LE(offset + bytes, ext.bytes) << "read past EOF of " << name;
  const Tick done = channel_.Reserve(now, static_cast<double>(bytes)).end;
  if (data != nullptr) {
    data_.Read(ext.base + offset, data, bytes);
  }
  bytes_read_ += static_cast<double>(bytes);
  return done;
}

Tick NvmeSsd::Write(Tick now, const std::string& name, std::uint64_t offset,
                    std::uint64_t bytes, const void* data) {
  const FileExtent& ext = Extent(name);
  FAB_CHECK_LE(offset + bytes, ext.bytes) << "write past EOF of " << name;
  // One shared channel: writes occupy it proportionally longer.
  const double scaled =
      static_cast<double>(bytes) * config_.read_gb_per_s / config_.write_gb_per_s;
  const Tick done = channel_.Reserve(now, scaled).end;
  if (data != nullptr) {
    data_.Write(ext.base + offset, data, bytes);
  }
  bytes_written_ += static_cast<double>(bytes);
  return done;
}

}  // namespace fabacus

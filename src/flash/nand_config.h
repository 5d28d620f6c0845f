// Flash backbone geometry and timing (paper §2.2, Table 1).
//
// 4 NV-DDR2 channels, 4 TLC packages per channel, 2 planes per package,
// 8 KB pages, 32 GB total, page read 81 us, page program 2.6 ms. A *page
// group* — Flashvisor's mapping unit — stripes one page per plane across all
// channels at the same (package, block, page) coordinate:
//   64 KB = 4 channels x 2 planes x 8 KB          (paper §4.3)
// which makes the full mapping table 32 GB / 64 KB * 4 B = 2 MB, exactly the
// scratchpad budget the paper quotes.
#ifndef SRC_FLASH_NAND_CONFIG_H_
#define SRC_FLASH_NAND_CONFIG_H_

#include <cstdint>

#include "src/flash/fault_model.h"
#include "src/sim/time.h"

namespace fabacus {

struct NandConfig {
  int channels = 4;
  int packages_per_channel = 4;
  int planes_per_package = 2;
  int blocks_per_plane = 512;
  int pages_per_block = 256;
  std::uint64_t page_bytes = 8 * 1024;

  Tick read_latency = 81 * kUs;       // tR, multi-plane
  Tick program_latency = 2600 * kUs;  // tPROG, TLC
  Tick erase_latency = 6 * kMs;       // tBERS
  double channel_gb_per_s = 0.8;      // NV-DDR2 @ 200 MHz DDR
  Tick channel_cmd_overhead = 1 * kUs;

  int controller_tag_queue_depth = 8;  // in-flight ops per FPGA controller

  // Reliability model (see src/flash/fault_model.h and docs/RELIABILITY.md).
  FaultConfig fault;
  std::uint64_t endurance_cycles = 3000;  // TLC rated program/erase cycles
  // ONFi-style read-retry ladder: up to `read_retry_ladder` re-reads with
  // shifted reference voltages; rung k adds k * read_retry_step of sensing
  // setup on top of the full tR re-read.
  int read_retry_ladder = 5;
  Tick read_retry_step = 20 * kUs;

  // Derived quantities -------------------------------------------------------
  std::uint64_t GroupBytes() const {
    return static_cast<std::uint64_t>(channels) * planes_per_package * page_bytes;
  }
  // Group slots per package: one slot = one page on each plane.
  std::uint64_t GroupsPerPackage() const {
    return static_cast<std::uint64_t>(blocks_per_plane) * pages_per_block;
  }
  // Total page groups in the backbone.
  std::uint64_t TotalGroups() const { return GroupsPerPackage() * packages_per_channel; }
  std::uint64_t TotalBytes() const { return TotalGroups() * GroupBytes(); }
  // Block groups ("superblocks", the GC/erase unit): one block index across
  // every package of every channel. Slots within a block group stride the
  // packages so a sequential write point pipelines die programs.
  std::uint64_t TotalBlockGroups() const { return blocks_per_plane; }
  std::uint64_t GroupsPerBlockGroup() const {
    return static_cast<std::uint64_t>(pages_per_block) * packages_per_channel;
  }
  std::uint64_t BlockGroupBytes() const { return GroupsPerBlockGroup() * GroupBytes(); }
  int total_dies() const { return channels * packages_per_channel; }
};

// Physical coordinate of one page-group slot.
struct GroupAddress {
  int package;  // package index within each channel (0..packages_per_channel)
  int block;    // block index within each plane
  int page;     // page index within the block
};

// Consecutive flat group indices interleave across the packages of each
// channel so sequential streams pipeline die operations behind the channel
// bus (this is what sustains Table 1's 3.2 GB/s estimate; without it a
// sequential read serializes on one die's tR).
inline GroupAddress DecodeGroup(const NandConfig& cfg, std::uint64_t group) {
  GroupAddress a;
  a.package = static_cast<int>(group % cfg.packages_per_channel);
  const std::uint64_t rem = group / cfg.packages_per_channel;
  a.block = static_cast<int>(rem / cfg.pages_per_block);
  a.page = static_cast<int>(rem % cfg.pages_per_block);
  return a;
}

inline std::uint64_t EncodeGroup(const NandConfig& cfg, const GroupAddress& a) {
  return (static_cast<std::uint64_t>(a.block) * cfg.pages_per_block +
          static_cast<std::uint64_t>(a.page)) *
             cfg.packages_per_channel +
         static_cast<std::uint64_t>(a.package);
}

}  // namespace fabacus

#endif  // SRC_FLASH_NAND_CONFIG_H_

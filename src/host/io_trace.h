// I/O trace parsing and replay against Flashvisor. A trace is a text file of
// one request per line:
//
//     # comment
//     <issue_us> <R|W> <byte_addr> <bytes>
//
// (blktrace-style, the tool the paper uses for device-level measurements).
// Replay submits each request at its issue time through the normal
// Flashvisor path and collects per-request latency plus device counters —
// useful for studying the FTL under recorded or synthetic access patterns
// without writing a kernel.
#ifndef SRC_HOST_IO_TRACE_H_
#define SRC_HOST_IO_TRACE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/flashvisor.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace fabacus {

struct IoTraceEntry {
  Tick issue = 0;        // ns from trace start
  bool is_write = false;
  std::uint64_t addr = 0;   // logical byte address (group-aligned by replay)
  std::uint64_t bytes = 0;
};

// Parses trace text. Returns false and fills *error on malformed input.
// Lines starting with '#' and blank lines are skipped.
bool ParseIoTrace(const std::string& text, std::vector<IoTraceEntry>* out,
                  std::string* error);

struct IoReplayResult {
  // Per-request latency in completion order, one entry per completed read or
  // write; SummarizeSamples turns either into its statistics.
  std::vector<double> read_latency_us;
  std::vector<double> write_latency_us;
  Tick makespan = 0;
  double read_mb = 0.0;
  double write_mb = 0.0;
};

// Replays `entries` against `fv`, driving `sim` to completion. Addresses are
// aligned down to page-group boundaries and lengths rounded up; requests
// whose extent exceeds the device's logical capacity are wrapped.
IoReplayResult ReplayIoTrace(Simulator* sim, Flashvisor* fv,
                             const std::vector<IoTraceEntry>& entries);

// Synthesizes a trace: `n` requests of `bytes` each, alternating read/write
// with probability `write_fraction`, addresses uniform over `span_bytes`,
// issued every `inter_arrival` ns. Deterministic from `seed`.
std::vector<IoTraceEntry> SynthesizeIoTrace(int n, std::uint64_t bytes,
                                            double write_fraction,
                                            std::uint64_t span_bytes, Tick inter_arrival,
                                            std::uint64_t seed);

}  // namespace fabacus

#endif  // SRC_HOST_IO_TRACE_H_

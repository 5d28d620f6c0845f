// Replays an I/O trace file against a fresh FlashAbacus FTL and prints
// device-level latency statistics (the blktrace-style analysis of §5,
// "Profile methods", pointed at our own device).
//
//   $ ./build/tools/replay_trace trace.txt
//   $ ./build/tools/replay_trace --synth 2000 0.3    # n requests, write frac
//
// Trace format: "<issue_us> <R|W> <byte_addr> <bytes>" per line, '#' comments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/host/io_trace.h"
#include "src/mem/dram.h"
#include "src/mem/scratchpad.h"

int main(int argc, char** argv) {
  using namespace fabacus;
  if (argc < 2) {
    std::fprintf(stderr, "usage: replay_trace <trace-file> | --synth <n> <write_frac>\n");
    return 1;
  }

  std::vector<IoTraceEntry> entries;
  NandConfig nand;  // full Table-1 geometry
  if (std::string(argv[1]) == "--synth") {
    const int n = argc > 2 ? std::atoi(argv[2]) : 2000;
    const double wf = argc > 3 ? std::atof(argv[3]) : 0.3;
    entries = SynthesizeIoTrace(n, nand.GroupBytes(), wf, 1ULL << 30, 100 * kUs, 42);
    std::printf("synthesized %d requests (%.0f%% writes)\n", n, wf * 100.0);
  } else {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    std::string error;
    if (!ParseIoTrace(ss.str(), &entries, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("parsed %zu requests from %s\n", entries.size(), argv[1]);
  }
  if (entries.empty()) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }

  Simulator sim;
  FlashBackbone backbone(nand);
  Dram dram{DramConfig{}};
  Scratchpad scratchpad{ScratchpadConfig{}};
  Flashvisor fv(&sim, &backbone, &dram, &scratchpad);

  const IoReplayResult r = ReplayIoTrace(&sim, &fv, entries);
  std::printf("\nmakespan: %.3f ms\n", TicksToMs(r.makespan));
  const auto print_side = [](const char* label, const std::vector<double>& lat_us, double mb) {
    const HistogramSummary s = SummarizeSamples(lat_us);
    std::printf("%s %6llu (%8.1f MB)", label, static_cast<unsigned long long>(s.count), mb);
    if (s.count > 0) {
      std::printf("  lat us: avg %8.1f p99 %8.1f max %8.1f", s.mean, s.p99, s.max);
    }
  };
  print_side("reads: ", r.read_latency_us, r.read_mb);
  std::printf("\n");
  print_side("writes:", r.write_latency_us, r.write_mb);
  std::printf("\nflash: %llu group reads, %llu programs, %llu erases, %llu fg reclaims\n",
              static_cast<unsigned long long>(backbone.reads()),
              static_cast<unsigned long long>(backbone.programs()),
              static_cast<unsigned long long>(backbone.erases()),
              static_cast<unsigned long long>(fv.foreground_reclaims()));
  return 0;
}

// The benchmark's workloads. Each one runs a fixed "unit" of work, built
// entirely from the run's seed, through the simulator's public API; the
// runner (main.cc) repeats the unit for the run's time budget and reports the
// median. A unit's simulated results are deterministic per seed, so every
// repetition must reproduce them exactly.
#ifndef PERFBENCH_FABBENCH_BENCH_H_
#define PERFBENCH_FABBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fabbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // Deliberate corruption used by the must-trip test (selftest.py); empty in
  // a normal run. See kInjections in main.cc.
  std::string inject;
};

struct UnitResult {
  // Simulated seconds advanced by every simulator the unit ran.
  double sim_s = 0.0;
  // Correctness checks made and failed (kernel verifications, read-back
  // compares, fleet requests).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few failure descriptions
  // Deterministic simulated results: the end-to-end figures ("throughput_mb_s",
  // "latency_p50_ms", ...) and the layer counters ("flash.programs", ...).
  std::map<std::string, double> sim;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(what);
      }
    }
  }
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  // Builds and destroys what a unit constructs before any input exists (the
  // device or fleet); returns the construction time in seconds.
  virtual double TimeSetup() = 0;
  virtual UnitResult RunUnit() = 0;
};

std::unique_ptr<BenchWorkload> MakePaperMix(const Options& opt);
std::unique_ptr<BenchWorkload> MakeFtlChurn(const Options& opt);
std::unique_ptr<BenchWorkload> MakeFleetServe(const Options& opt);
std::unique_ptr<BenchWorkload> MakeFleetSynth(const Options& opt);

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace fabbench

#endif  // PERFBENCH_FABBENCH_BENCH_H_

// fabbench: runs one benchmark workload in this process and writes its raw
// measurements as JSON. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads, metrics and seeds.
//
//   fabbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//            [--spans FILE] [--inject KIND]
//
// The run repeats the workload unit until the time budget is spent, at least
// kMinUnits times, and times one set-up (building every registry workload and
// constructing the workload's device or fleet) after each unit, at least
// kMinSetups in all. Set-ups timed back to back speed up rep after rep as the
// allocator and caches settle, so a median of back-to-back set-ups depends on
// how many ran; one after each unit samples the same state every time. With
// --trace 1 half of the budget runs untraced and half traced: every traced
// unit's spans are summarized per name and, with --spans, written out when
// the run ends. Every repetition must reproduce the first one's simulated
// results exactly; a difference counts as a failed check.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "src/sim/json.h"
#include "src/workloads/workload.h"

namespace fabbench {
namespace {

constexpr int kMinSetups = 5;
constexpr int kMinUnits = 3;
constexpr int kMinTracedUnits = 2;

// Deliberate corruptions for the must-trip test, by the workload they apply
// to.
struct Injection {
  const char* kind;
  const char* workload;
};
constexpr Injection kInjections[] = {
    {"kernel_output", "paper_mix"},      // a wrong kernel output fails Verify
    {"readback", "ftl_churn"},           // a flipped read-back byte fails the compare
    {"unpaced", "ftl_churn"},            // no think time: the seed's FTL abort
    {"fleet_unverified", "fleet_serve"}, // a fleet report with verified = false
    {"fleet_unverified", "fleet_synth"},
};

struct Args {
  Options opt;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "fabbench: %s\n"
               "usage: fabbench --workload paper_mix|ftl_churn|fleet_serve|fleet_synth "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE] [--inject KIND]\n",
               problem.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.opt.workload = value;
    } else if (flag == "--seed") {
      a.opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--inject") {
      a.opt.inject = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.out.empty()) {
    Usage("--out is required");
  }
  if (!(a.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  if (!a.opt.inject.empty()) {
    bool known = false;
    for (const Injection& inj : kInjections) {
      known = known || (a.opt.inject == inj.kind && a.opt.workload == inj.workload);
    }
    if (!known) {
      Usage("injection '" + a.opt.inject + "' does not apply to workload '" + a.opt.workload +
            "'");
    }
  }
  return a;
}

std::unique_ptr<BenchWorkload> Make(const Options& opt) {
  if (opt.workload == "paper_mix") {
    return MakePaperMix(opt);
  }
  if (opt.workload == "ftl_churn") {
    return MakeFtlChurn(opt);
  }
  if (opt.workload == "fleet_serve") {
    return MakeFleetServe(opt);
  }
  if (opt.workload == "fleet_synth") {
    return MakeFleetSynth(opt);
  }
  Usage("unknown workload '" + opt.workload + "'");
}

// High-water mark of this process's resident set (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Builds every registry workload from its factory: the work
// WorkloadRegistry::Get() does once per process, timed here on every setup
// repetition.
double TimeRegistryBuild() {
  using MakeFn = std::unique_ptr<fabacus::Workload> (*)();
  static constexpr MakeFn kFactories[] = {
      fabacus::MakeAtax,    fabacus::MakeBicg,      fabacus::MakeConv2d, fabacus::MakeMvt,
      fabacus::MakeAdi,     fabacus::MakeFdtd,      fabacus::MakeGesummv, fabacus::MakeSyrk,
      fabacus::Make3mm,     fabacus::MakeCovar,     fabacus::MakeGemm,   fabacus::Make2mm,
      fabacus::MakeSyr2k,   fabacus::MakeCorr,      fabacus::MakeBfs,    fabacus::MakeWordcount,
      fabacus::MakeNn,      fabacus::MakeNw,        fabacus::MakePathfinder,
  };
  std::vector<std::unique_ptr<fabacus::Workload>> built;
  const auto start = std::chrono::steady_clock::now();
  for (const MakeFn make : kFactories) {
    built.push_back(make());
  }
  return SecondsSince(start);
}

void WriteDoubles(fabacus::JsonWriter* w, const std::string& key, const std::vector<double>& v) {
  w->Key(key).BeginArray();
  for (const double x : v) {
    w->Value(x);
  }
  w->EndArray();
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  std::unique_ptr<BenchWorkload> wl = Make(args.opt);
  std::vector<double> setup_s;
  const auto time_setup = [&] { setup_s.push_back(TimeRegistryBuild() + wl->TimeSetup()); };

  UnitResult first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  int units = 0;
  // Folds one unit's result into the run totals, checking it reproduced the
  // first unit's simulated results.
  const auto fold = [&](const UnitResult& r) {
    if (units++ == 0) {
      first = r;
    } else {
      ++attempted;
      if (r.sim != first.sim || r.sim_s != first.sim_s) {
        ++failed;
        failures.push_back("repetition " + std::to_string(units) +
                           " did not reproduce the first repetition's simulated results");
      }
    }
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      if (failures.size() < 16) {
        failures.push_back(f);
      }
    }
  };

  const double untraced_budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> unit_wall_s;
  auto start = std::chrono::steady_clock::now();
  while (static_cast<int>(unit_wall_s.size()) < kMinUnits ||
         SecondsSince(start) < untraced_budget) {
    const auto t0 = std::chrono::steady_clock::now();
    const UnitResult r = wl->RunUnit();
    unit_wall_s.push_back(SecondsSince(t0));
    fold(r);
    time_setup();
  }
  while (static_cast<int>(setup_s.size()) < kMinSetups) {
    time_setup();
  }

  Tracer tracer;
  std::vector<double> traced_wall_s;
  if (args.trace) {
    SetActiveTracer(&tracer);
    start = std::chrono::steady_clock::now();
    for (int unit = 0; unit < kMinTracedUnits || SecondsSince(start) < args.seconds / 2.0;
         ++unit) {
      tracer.set_unit(unit);
      const auto t0 = std::chrono::steady_clock::now();
      UnitResult r;
      {
        ScopedSpan root("bench.unit");
        r = wl->RunUnit();
      }
      traced_wall_s.push_back(SecondsSince(t0));
      fold(r);
    }
    SetActiveTracer(nullptr);
    if (!args.spans.empty() && !tracer.WriteJson(args.spans)) {
      std::fprintf(stderr, "fabbench: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }

  fabacus::JsonWriter w;
  w.BeginObject();
  w.Field("workload", args.opt.workload);
  w.Field("seed", args.opt.seed);
  WriteDoubles(&w, "setup_s", setup_s);
  WriteDoubles(&w, "unit_wall_s", unit_wall_s);
  w.Field("sim_s", first.sim_s);
  w.Key("sim").BeginObject();
  for (const auto& [name, value] : first.sim) {
    w.Field(name, value);
  }
  w.EndObject();
  w.Field("attempted", attempted);
  w.Field("failed", failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : failures) {
    w.Value(f);
  }
  w.EndArray();
  w.Field("peak_rss_mb", PeakRssMb());
  w.Key("traced_units").BeginArray();
  for (std::size_t unit = 0; unit < traced_wall_s.size(); ++unit) {
    w.BeginObject();
    w.Field("wall_s", traced_wall_s[unit]);
    w.Key("spans").BeginObject();
    for (const auto& [name, st] : tracer.Summarize(static_cast<int>(unit))) {
      w.Key(name).BeginObject();
      w.Field("self_s", st.self_s).Field("total_s", st.total_s).Field("count", st.count);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fabbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fabbench

int main(int argc, char** argv) { return fabbench::Main(argc, argv); }

// Workload registry: the 14 PolyBench applications of Table 2, the five
// graph/bigdata applications of §5.6, and the synthetic serial-fraction
// kernel of §3.1. Every workload carries
//  * the Table-2 model parameters (input MB, LD/ST ratio, B/KI, microblock
//    structure with serial flags) driving the timing model, and
//  * a functional implementation: Prepare() fills real input buffers,
//    microblock bodies compute real outputs, Reference() recomputes them
//    from the inputs, and Verify() compares the two.
//
// Reference() is not an independent implementation. Only ATAX, BICG and
// wordcount compute it with separately written loops; the other 16 registry
// workloads call the kernel's own stage functions (GemmRows, CovRows, ...).
// So Verify() proves that the data survived flash and that every screen ran
// over its range, not that the math is right. The math is pinned instead by
// tests/golden/WorkloadOutputs.json: hashes of every buffer and Reference()
// vector of every registry workload, at three seeds and three screen
// fanouts, which a kernel rewrite must reproduce bit for bit.
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/sim/rng.h"

namespace fabacus {

class Workload {
 public:
  virtual ~Workload() = default;

  const KernelSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  // The values one output buffer must hold after a run.
  struct Expected {
    int buffer = -1;  // index into AppInstance::buffers()
    std::vector<float> values;
    float rel_tol = 1e-4f;  // NearlyEqual tolerance
  };

  // Sizes the instance's functional buffers and fills the inputs
  // deterministically from `rng`. Outputs are zeroed.
  virtual void Prepare(AppInstance& inst, Rng& rng) const = 0;

  // Returns an instance prepared from `seed` — possibly run since — to
  // exactly the state Prepare(inst, Rng(seed)) left it in. The default
  // prepares again; a workload whose kernel leaves its inputs intact, or
  // keeps pristine copies of the inputs it updates in place, overrides this
  // to zero the outputs and restore the copies without redrawing any input.
  virtual void Reset(AppInstance& inst, std::uint64_t seed) const;

  // Recomputes the kernel with a reference implementation from the
  // instance's input buffers (or their pristine copies): one entry per
  // output buffer the run must have produced.
  virtual std::vector<Expected> Reference(const AppInstance& inst) const = 0;

  // True when every expected buffer matches within its tolerance.
  static bool Matches(const AppInstance& inst, const std::vector<Expected>& expected);

  bool Verify(const AppInstance& inst) const { return Matches(inst, Reference(inst)); }

  // True for the compute-intensive group (B/KI below ~10, Fig 10a split).
  bool compute_intensive() const { return spec_.bki < 10.0; }

 protected:
  // Reference()'s result with each entry moved in. A braced
  // `return {{buffer, std::move(values)}}` would copy every vector out of
  // its initializer_list, whose elements are const.
  template <std::size_t N>
  static std::vector<Expected> Outputs(Expected (&&entries)[N]) {
    return std::vector<Expected>(std::make_move_iterator(entries),
                                 std::make_move_iterator(entries + N));
  }

  KernelSpec spec_;
};

// Approximate float comparison behind Workload::Matches(): true when `a` and
// `b` have the same size and every pair of elements is finite and differs by
// at most rel_tol * max(|a[i]|, |b[i]|, 1).
bool NearlyEqual(const std::vector<float>& a, const std::vector<float>& b,
                 float rel_tol = 1e-4f);

class WorkloadRegistry {
 public:
  static const WorkloadRegistry& Get();

  const Workload* Find(const std::string& name) const;
  // Table-2 order: ATAX BICG 2DCONV MVT ADI FDTD GESUM SYRK 3MM COVAR GEMM
  // 2MM SYR2K CORR.
  const std::vector<const Workload*>& polybench() const { return polybench_; }
  // §5.6 order: bfs wc nn nw path.
  const std::vector<const Workload*>& graph() const { return graph_; }
  const std::vector<const Workload*>& all() const { return all_; }

  // Heterogeneous workload MXi (1-based, Table 2 right half): six apps each.
  // Exact mix membership is not recoverable from the paper text; these mixes
  // follow its constraints (see DESIGN.md).
  std::vector<const Workload*> Mix(int i) const;
  static constexpr int kNumMixes = 14;

 private:
  WorkloadRegistry();
  std::vector<std::unique_ptr<Workload>> owned_;
  std::vector<const Workload*> polybench_;
  std::vector<const Workload*> graph_;
  std::vector<const Workload*> all_;
};

// Factories (one translation unit per application).
std::unique_ptr<Workload> MakeAtax();
std::unique_ptr<Workload> MakeBicg();
std::unique_ptr<Workload> MakeConv2d();
std::unique_ptr<Workload> MakeMvt();
std::unique_ptr<Workload> MakeAdi();
std::unique_ptr<Workload> MakeFdtd();
std::unique_ptr<Workload> MakeGesummv();
std::unique_ptr<Workload> MakeSyrk();
std::unique_ptr<Workload> Make3mm();
std::unique_ptr<Workload> MakeCovar();
std::unique_ptr<Workload> MakeGemm();
std::unique_ptr<Workload> Make2mm();
std::unique_ptr<Workload> MakeSyr2k();
std::unique_ptr<Workload> MakeCorr();
std::unique_ptr<Workload> MakeBfs();
std::unique_ptr<Workload> MakeWordcount();
std::unique_ptr<Workload> MakeNn();
std::unique_ptr<Workload> MakeNw();
std::unique_ptr<Workload> MakePathfinder();

// Synthetic kernel for the Fig-3 motivation study: `serial_ratio` of the
// modelled work sits in a serial microblock. When `io_free` is true the
// kernel declares no flash/file data sections (its data is assumed resident
// in accelerator DRAM) — used for the pure compute-scaling sweep of Fig 3b/c.
std::unique_ptr<Workload> MakeSynthetic(double serial_ratio, double input_mb = 640.0,
                                        bool io_free = false);

}  // namespace fabacus

#endif  // SRC_WORKLOADS_WORKLOAD_H_

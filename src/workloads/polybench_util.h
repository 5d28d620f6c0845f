// Shared helpers for the PolyBench workload implementations.
#ifndef SRC_WORKLOADS_POLYBENCH_UTIL_H_
#define SRC_WORKLOADS_POLYBENCH_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/core/kernel.h"
#include "src/sim/rng.h"

namespace fabacus {

// Fills `v` with deterministic values in [-1, 1).
inline void FillRandom(std::vector<float>* v, std::size_t n, Rng& rng) {
  v->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*v)[i] = rng.NextFloat(-1.0f, 1.0f);
  }
}

inline void FillZero(std::vector<float>* v, std::size_t n) { v->assign(n, 0.0f); }

// The transpose of the row-major n x n matrix `m`.
inline std::vector<float> Transpose(const std::vector<float>& m, std::size_t n) {
  std::vector<float> t(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      t[j * n + i] = m[i * n + j];
    }
  }
  return t;
}

// Row dot products of the row-major n-column matrix `a` with `x`: calls
// out(i, sum) for each row i in [begin, end), where sum adds a[i*n+j]*x[j]
// for j = 0, 1, ... n-1 onto 0.0f, bit for bit the one-row scalar loop.
// Eight rows advance together, so eight independent sums hide the add
// latency without reassociating any of them.
template <typename Out>
inline void RowDots(const float* a, const float* x, std::size_t n, std::size_t begin,
                    std::size_t end, Out out) {
  constexpr std::size_t kRows = 8;
  const std::size_t blocked_end = begin + (end - begin) / kRows * kRows;
  for (std::size_t i = begin; i < blocked_end; i += kRows) {
    float acc[kRows] = {};
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t r = 0; r < kRows; ++r) {
        acc[r] += a[(i + r) * n + j] * x[j];
      }
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      out(i + r, acc[r]);
    }
  }
  for (std::size_t i = blocked_end; i < end; ++i) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      acc += a[i * n + j] * x[j];
    }
    out(i, acc);
  }
}

// Instruction-mix helper: load/store fraction from Table 2, the rest split
// between multiply and general-purpose FUs.
inline void SetMix(MicroblockSpec* m, double ldst, double mul_share) {
  m->frac_ldst = ldst;
  m->frac_mul = (1.0 - ldst) * mul_share;
  m->frac_alu = 1.0 - m->frac_ldst - m->frac_mul;
}

}  // namespace fabacus

#endif  // SRC_WORKLOADS_POLYBENCH_UTIL_H_

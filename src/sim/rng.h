// Deterministic pseudo-random numbers (SplitMix64 core). The simulator never
// uses std::random_device so that every run is reproducible from a seed.
#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <cstdint>

namespace fabacus {

// SplitMix64's output finalizer: a bijective scramble of one 64-bit word,
// also used on its own as a stateless hash (seed derivation, routing homes).
inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  std::uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }

  // Uniform in [0, n). Rejection sampling: a bare `Next() % n` over-weights
  // the low residues whenever n does not divide 2^64. Draws below
  // 2^64 mod n are rejected, which leaves a whole multiple of n outcomes, so
  // every residue is exactly equally likely. Still deterministic per seed
  // (the rejection schedule is itself a pure function of the stream).
  std::uint64_t NextBelow(std::uint64_t n) {
    if (n == 0) {
      return 0;
    }
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t v = Next();
      if (v >= threshold) {
        return v % n;
      }
    }
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform float in [lo, hi).
  float NextFloat(float lo, float hi) {
    return lo + (hi - lo) * static_cast<float>(NextDouble());
  }

  // Raw stream position, for checkpoint/restore: a restored Rng continues
  // the exact draw sequence of the saved one (docs/SNAPSHOT.md).
  std::uint64_t state() const { return state_; }
  void set_state(std::uint64_t state) { state_ = state; }

 private:
  std::uint64_t state_;
};

}  // namespace fabacus

#endif  // SRC_SIM_RNG_H_

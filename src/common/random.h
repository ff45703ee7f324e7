// Deterministic PRNG utilities for data generation and property tests.
//
// Every experiment in bench/ is seeded, so Table 1 / Figures 8-14 are
// reproducible run to run. We implement xoshiro256** seeded via splitmix64
// rather than using <random> engines so the bit streams are stable across
// standard-library implementations.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mctdb {

/// xoshiro256** with a splitmix64 seeding routine. Deterministic across
/// platforms, cheap, and of more than sufficient quality for workload
/// generation.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0xC0FFEE) {
    // splitmix64 expansion of the seed into the 4-word state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    // Lemire's multiply-shift rejection-free-enough reduction; bias is
    // negligible for the magnitudes used here.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Next()) * n) >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// True with probability 1/n.
  bool OneIn(uint64_t n) { return Uniform(n) == 0; }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Pick a uniformly random element of a non-empty vector.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    assert(!v.empty());
    return v[Uniform(v.size())];
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Zipf-distributed ranks in [0, n) with exponent `theta` (0 = uniform).
/// Used for skewed relationship fan-out, matching e-commerce data where a
/// few items dominate order lines. Rejection-free inverse-CDF approximation
/// (Gray et al., "Quickly generating billion-record synthetic databases",
/// SIGMOD '94): zeta(n), eta and alpha depend only on (n, theta), so they
/// are computed once here and each draw costs one NextDouble and one pow.
class ZipfSampler {
 public:
  /// n must be > 0.
  ZipfSampler(uint64_t n, double theta);

  /// One rank in [0, n). theta <= 0 or n == 1 draws Uniform(n).
  uint64_t Sample(Rng* rng) const;

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double zeta2_ = 0.0;  // 1 + 0.5^theta: the rank-1 threshold
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

}  // namespace mctdb

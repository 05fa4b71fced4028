// Deterministic, seedable pseudo-random number generator.
//
// The simulator needs reproducible runs across platforms, so we implement
// xoshiro256++ (Blackman & Vigna, public domain) seeded via SplitMix64
// instead of relying on implementation-defined std::mt19937 distributions.
// All variate transforms (normal, exponential, Poisson) are implemented here
// so results are bit-identical for a given seed everywhere.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace svc::stats {

class Rng {
 public:
  // Seeds the state via SplitMix64 so that nearby seeds give uncorrelated
  // streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Core generator: uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive (unbiased via rejection).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Standard normal via the Marsaglia polar method (one spare cached).
  double StandardNormal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_normal_;
    }
    double u, v, s;
    do {
      u = 2.0 * UniformDouble() - 1.0;
      v = 2.0 * UniformDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_normal_ = v * factor;
    has_spare_ = true;
    return u * factor;
  }

  // Writes to out[0, n) exactly the values n calls to StandardNormal()
  // would return, leaving the generator (and its spare) in the same state.
  // The polar pairs are drawn first with a branch-free accept loop, then
  // their scale factors are computed in a second loop.  `scratch` is
  // reusable storage so repeated calls do not allocate.
  void FillStandardNormal(double* out, size_t n, std::vector<double>& scratch);

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * StandardNormal();
  }

  // Exponential with the given mean (= 1/rate).
  double Exponential(double mean);

  // Poisson-distributed count.  Knuth's method for small means, normal
  // approximation (rounded, clamped at 0) for mean > 64.
  int64_t Poisson(double mean);

  // Splits off an independent child stream (for per-job randomness).
  Rng Split();

 private:
  std::array<uint64_t, 4> state_;
  double spare_normal_ = 0;
  bool has_spare_ = false;
};

}  // namespace svc::stats

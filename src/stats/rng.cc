#include "stats/rng.h"

#include <cassert>
#include <cmath>

namespace svc::stats {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // All-zero state would be a fixed point; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * UniformDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextU64());  // full range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw;
  do {
    draw = NextU64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

void Rng::FillStandardNormal(double* out, size_t n,
                             std::vector<double>& scratch) {
  size_t filled = 0;
  if (n > 0 && has_spare_) {
    has_spare_ = false;
    out[filled++] = spare_normal_;
  }
  if (filled == n) return;
  // One accepted (u, v, s) triple per pair of outputs; the last pair's v
  // becomes the spare when the count left is odd.  Every attempt is
  // written to slot `pairs`, which advances only on acceptance, so the
  // loop draws exactly the uniforms StandardNormal() would.
  const size_t wanted = (n - filled + 1) / 2;
  if (scratch.size() < 3 * (wanted + 1)) scratch.resize(3 * (wanted + 1));
  double* us = scratch.data();
  double* vs = us + (wanted + 1);
  double* ss = vs + (wanted + 1);
  size_t pairs = 0;
  while (pairs < wanted) {
    const double u = 2.0 * UniformDouble() - 1.0;
    const double v = 2.0 * UniformDouble() - 1.0;
    const double s = u * u + v * v;
    us[pairs] = u;
    vs[pairs] = v;
    ss[pairs] = s;
    pairs += static_cast<size_t>(s < 1.0) & static_cast<size_t>(s != 0.0);
  }
  for (size_t i = 0; i < wanted; ++i) {
    ss[i] = std::sqrt(-2.0 * std::log(ss[i]) / ss[i]);
  }
  const size_t full = (n - filled) / 2;
  for (size_t i = 0; i < full; ++i) {
    out[filled++] = us[i] * ss[i];
    out[filled++] = vs[i] * ss[i];
  }
  if (filled < n) {
    out[filled] = us[full] * ss[full];
    spare_normal_ = vs[full] * ss[full];
    has_spare_ = true;
  }
}

double Rng::Exponential(double mean) {
  assert(mean > 0);
  // 1 - U in (0,1] avoids log(0).
  return -mean * std::log(1.0 - UniformDouble());
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0);
  if (mean == 0) return 0;
  if (mean > 64.0) {
    const double draw = Normal(mean, std::sqrt(mean));
    return draw < 0 ? 0 : static_cast<int64_t>(std::llround(draw));
  }
  // Knuth: multiply uniforms until below exp(-mean).
  const double threshold = std::exp(-mean);
  int64_t count = 0;
  double product = UniformDouble();
  while (product > threshold) {
    ++count;
    product *= UniformDouble();
  }
  return count;
}

Rng Rng::Split() { return Rng(NextU64()); }

}  // namespace svc::stats

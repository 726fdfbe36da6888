// Deterministic random number generation.
//
// Every stochastic component (probabilistic triggers, campaign fault-site
// randomisation, workload generators) draws from an explicitly seeded Rng so
// that a campaign run can be reproduced bit-for-bit from its seed — this is
// how the paper re-executes "the same two cases" for the Fig. 7 analysis.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.h"

namespace chaser {

/// MT19937-64 with the output stream of std::mt19937_64, bit for bit, and
/// the same min()/max(), so the std distributions draw identical values from
/// it. It differs only in when it does its work. std::mt19937_64 seeds all
/// 312 state words up front and twists them all at the first output, which
/// a trial that draws a handful of values pays in full (~3 µs). This engine
/// seeds a word only once an output reads it, and twists one word per
/// output. The block twist is a sequential in-place loop, so twisting word k
/// just before output k computes exactly the value the block twist would
/// have. Twisting word k reads words k, k+1 and k+156 (mod 312) and is
/// exact because:
///   * word k+1 is still untwisted, except that word 0 is already twisted
///     when k = 311, as in the block loop;
///   * word k+156 is untwisted for k < 156, and for k >= 156 its index
///     wraps to a word already twisted in this block, again as in the loop.
/// Seeding is a recurrence, so the first output needs words 0..156 seeded,
/// and from output 155 on, all of them. Construction, seed() and copies never
/// read a word that is not seeded yet.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { this->seed(seed); }
  Mt19937_64(const Mt19937_64& o) { *this = o; }
  Mt19937_64& operator=(const Mt19937_64& o) {
    std::copy_n(o.mt_.begin(), o.seeded_, mt_.begin());
    seeded_ = o.seeded_;
    index_ = o.index_;
    return *this;
  }

  void seed(result_type seed) {
    mt_[0] = seed;
    seeded_ = 1;
    index_ = 0;
  }

  result_type operator()() {
    const std::size_t k = index_;
    if (seeded_ < kN) [[unlikely]] SeedThrough(std::min(k + kM + 1, kN));
    const std::uint64_t y = (mt_[k] & kUpper) | (mt_[k + 1 == kN ? 0 : k + 1] & kLower);
    mt_[k] = mt_[k < kN - kM ? k + kM : k + kM - kN] ^ (y >> 1) ^ ((y & 1) != 0 ? kA : 0);
    index_ = k + 1 == kN ? 0 : k + 1;
    std::uint64_t z = mt_[k];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kA = 0xb5026f5aa96619e9ull;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;

  /// Seed words [seeded_, n) by the standard's initialisation recurrence.
  void SeedThrough(std::size_t n) {
    for (; seeded_ < n; ++seeded_) {
      const std::uint64_t prev = mt_[seeded_ - 1];
      mt_[seeded_] = 6364136223846793005ull * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  std::array<std::uint64_t, kN> mt_;  // words >= seeded_ are never read
  std::size_t seeded_ = 0;
  std::size_t index_ = 0;  // the word the next output twists and reads
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Restart the stream as Rng(seed) would, in O(1).
  void Reseed(std::uint64_t seed) { engine_.seed(seed); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t UniformU64(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Throws ConfigError if n == 0 — the
  /// alternative is an underflow to UniformU64(0, SIZE_MAX) and a garbage
  /// index that the caller would use to address an empty container.
  std::size_t Index(std::size_t n) {
    if (n == 0) throw ConfigError("Rng::Index: n must be > 0 (empty range)");
    return static_cast<std::size_t>(UniformU64(0, n - 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Pick a uniformly random element from a non-empty vector.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Index(v.size())];
  }

  /// Derive a child seed (for per-run or per-rank sub-generators).
  std::uint64_t Fork() { return engine_(); }

 private:
  Mt19937_64 engine_;
};

}  // namespace chaser

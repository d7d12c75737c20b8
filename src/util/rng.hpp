// Deterministic random number generation.
//
// Every stochastic component in the testbed owns an Rng seeded from the
// scenario seed plus a component tag, so experiments replay exactly and
// components can be added/removed without perturbing each other's streams.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace ddoshield::util {

/// xoshiro256** PRNG with convenience distributions.
///
/// Not cryptographic; chosen for speed, quality, and a tiny state that is
/// cheap to fork per component.
class Rng {
 public:
  /// Seeds from a single 64-bit value via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent stream for a named sub-component.
  /// fork("scanner") and fork("http") of the same parent never correlate.
  Rng fork(std::string_view tag) const;

  /// Derives an independent stream for the `index`-th instance of a named
  /// family — per-device, per-shard, per-flow streams. The stream depends
  /// only on (parent seed, tag, index), never on which shard the consumer
  /// lands in or how many draws siblings have made, so a topology can be
  /// re-partitioned across shard counts without perturbing any stream.
  Rng fork_stream(std::string_view tag, std::uint64_t index) const;

  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();
  double normal(double mean, double stddev);

  /// Exponential with the given rate (events per unit); mean is 1/rate.
  double exponential(double rate);

  /// Pareto-distributed sample (heavy-tailed; models file/flow sizes).
  double pareto(double scale, double shape);

  /// True with probability p.
  bool bernoulli(double p);

  /// Poisson-distributed count with the given mean (Knuth / normal approx).
  std::uint32_t poisson(double mean);

  /// Fisher-Yates shuffle of an index range stored by the caller.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ddoshield::util

#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ddoshield::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a over the tag, mixed into stream derivation.
std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : tag) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

Rng Rng::fork(std::string_view tag) const {
  // Combine the parent's full state with the tag hash so forked streams
  // depend on the parent seed but not on how many numbers it has drawn
  // relative to other forks.
  std::uint64_t mix = hash_tag(tag);
  for (auto w : state_) mix = rotl(mix ^ w, 17) * 0x9E3779B97F4A7C15ULL;
  return Rng{mix};
}

Rng Rng::fork_stream(std::string_view tag, std::uint64_t index) const {
  // Same derivation as fork(), with the index folded in through one extra
  // SplitMix64 round so adjacent indices decorrelate fully.
  std::uint64_t mix = hash_tag(tag);
  for (auto w : state_) mix = rotl(mix ^ w, 17) * 0x9E3779B97F4A7C15ULL;
  std::uint64_t idx = index ^ 0xA5A5A5A55A5A5A5AULL;
  mix ^= splitmix64(idx);
  return Rng{mix};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("uniform_u64: bound must be > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : uniform_u64(span));
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / rate;
}

double Rng::pareto(double scale, double shape) {
  if (scale <= 0.0 || shape <= 0.0) {
    throw std::invalid_argument("pareto: scale and shape must be > 0");
  }
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return scale / std::pow(u, 1.0 / shape);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint32_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's method.
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint32_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large means.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0u : static_cast<std::uint32_t>(std::llround(x));
}

}  // namespace ddoshield::util

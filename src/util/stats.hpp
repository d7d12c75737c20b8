// Streaming statistics helpers used by the feature extractor, the traffic
// generators, and the experiment harnesses.
#pragma once

#include <cstdint>

namespace ddoshield::util {

/// Welford online mean/variance accumulator; numerically stable and O(1)
/// per sample, which matters when features are recomputed every window.
class OnlineStats {
 public:
  void add(double x);

  /// Folds another accumulator in (Chan's parallel Welford combination).
  /// NOT order-free in floating point: merging partials A then B differs
  /// in the low bits from B then A, so deterministic pipelines must merge
  /// in a fixed order (DESIGN.md §15).
  void merge_from(const OnlineStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (divides by n). Zero when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return count_ == 0 ? 0.0 : mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ddoshield::util

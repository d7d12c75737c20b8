// Metrics substrate for the testbed: counters, gauges, histograms and
// latency series, all in one MetricsRegistry.
//
// Every layer of the system charges its instruments into a process-global
// MetricsRegistry (mirroring the process-global Logger): components look
// their instruments up once at construction and keep raw pointers, so the
// hot path is a plain integer increment — no map lookup, no allocation,
// no branch on an "enabled" flag. Both histogram kinds are one class
// template over a fixed bucket layout, so observing is O(1) and
// allocation-free: the registry's histograms use log2 buckets, its latency
// series log-linear ones.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace ddoshield::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level with a high-water mark (queue depths, backlogs).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double high_water() const { return high_water_; }
  void reset() {
    value_ = 0.0;
    high_water_ = 0.0;
  }

  /// Shard-merge: a combined snapshot keeps the worst level seen anywhere.
  void merge_from(const Gauge& other) {
    if (other.value_ > value_) value_ = other.value_;
    if (other.high_water_ > high_water_) high_water_ = other.high_water_;
  }

 private:
  double value_ = 0.0;
  double high_water_ = 0.0;
};

/// Bucket layout of the registry's histograms: bucket i holds samples in
/// [2^i, 2^(i+1)); samples 0 and 1 land in bucket 0. Quantiles are
/// log-interpolated within the winning bucket, which is plenty for the
/// order-of-magnitude questions the benches ask.
struct Log2Buckets {
  static constexpr std::size_t kBuckets = 64;

  static std::size_t index_of(std::uint64_t v) {
    if (v < 2) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(v));
  }

  /// Smallest sample value a bucket can hold (2^i; bucket 0 holds [0, 2)).
  static std::uint64_t bucket_floor(std::size_t i) { return i == 0 ? 0 : (1ull << i); }

  /// Value `into` (0..1) of the way through bucket i, log-interpolated.
  /// The upper edge is computed in floating point: for i == 63 the integer
  /// 1ull << 64 would overflow (and clamping it to 2^63 made hi == lo,
  /// degenerating the interpolation for the top bucket).
  static double interpolate(std::size_t i, double into) {
    const double lo = static_cast<double>(i == 0 ? 1 : (1ull << i));
    const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
    return lo * std::pow(hi / lo, into);
  }
};

/// Log-linear ("HDR-style") layout for tail latencies. Values below
/// 2^(kSubBits+1) are recorded exactly; above that, each power-of-two
/// octave splits into kSub linear sub-buckets, so any recorded value is
/// off by at most 1/kSub (~3%) of itself — tight enough that p999 is
/// meaningful — while index_of() stays a branch, a shift and a mask.
struct LogLinearBuckets {
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr std::size_t kSub = 1u << kSubBits;
  // Indices 0..2*kSub-1 are exact values; octaves 6..63 add kSub each.
  static constexpr std::size_t kBuckets = 2 * kSub + (63 - kSubBits) * kSub;

  static std::size_t index_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           (static_cast<std::size_t>(v >> shift) & (kSub - 1));
  }

  /// Inclusive lower edge of bucket i.
  static std::uint64_t bucket_floor(std::size_t i) {
    if (i < 2 * kSub) return i;
    return (kSub + i % kSub) << (i / kSub - 1);
  }

  /// Width in value space of bucket i.
  static std::uint64_t bucket_width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return 1ull << (i / kSub - 1);
  }

  /// Value `into` (0..1) of the way through bucket i, linearly.
  static double interpolate(std::size_t i, double into) {
    return static_cast<double>(bucket_floor(i)) +
           static_cast<double>(bucket_width(i)) * into;
  }
};

/// Fixed-bucket histogram over non-negative integer samples (nanoseconds,
/// bytes, counts), generic over its bucket layout. Fixed storage, no
/// allocation on observe(); the layout's static members (index_of,
/// bucket_floor, ...) are reachable through the histogram type.
template <typename Layout>
class BucketHistogram : public Layout {
 public:
  using Layout::kBuckets;

  void observe(std::uint64_t v) {
    ++buckets_[Layout::index_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0, 1], interpolated within the winning bucket
  /// by the layout and clamped to the observed [min, max].
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  void reset() {
    buckets_.fill(0);
    count_ = sum_ = min_ = max_ = 0;
  }

  /// Shard-merge: histograms are bucket-wise sums, so merging shard-local
  /// histograms yields exactly the histogram a single-domain run records.
  void merge_from(const BucketHistogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

template <typename Layout>
double BucketHistogram<Layout>::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // A single sample IS every quantile. The interpolation below would put
  // p50/p90 partway through the sample's bucket — for an out-of-range
  // sample (e.g. 2^63) that's far from the only value ever observed.
  if (count_ == 1) return static_cast<double>(min());
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max_);

  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      // Interpolate by the fraction of the bucket's population below the
      // target rank, then clamp to the observed range so tiny histograms
      // stay intuitive.
      const double into = 1.0 - (static_cast<double>(seen) - target) /
                                    static_cast<double>(buckets_[i]);
      const double v = Layout::interpolate(i, into);
      return std::min(std::max(v, static_cast<double>(min())), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

/// The registry's histograms: 64 log2 buckets.
using Histogram = BucketHistogram<Log2Buckets>;
/// Latency series (flight-recorder stage lags, survival request latency).
using LogLinearHistogram = BucketHistogram<LogLinearBuckets>;

extern template class BucketHistogram<Log2Buckets>;
extern template class BucketHistogram<LogLinearBuckets>;

/// Named instrument store of four kinds: counters, gauges, histograms and
/// latency series. Instruments live as long as the registry and never move
/// (std::map node stability), so callers cache the returned references
/// across the whole run.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The current registry for this thread: the process-wide default, or a
  /// shard-private override installed with set_current(). The sharded
  /// coordinator gives each shard its own registry (installed both while
  /// the shard's nodes/links resolve their instruments and on the shard's
  /// event-loop thread), so every hot-path increment stays an
  /// unsynchronised plain add with no cross-thread sharing; the per-shard
  /// registries are merged back into the process-wide one after the run.
  static MetricsRegistry& global();

  /// Installs `registry` as this thread's current registry (nullptr
  /// restores the process-wide default). Returns the previous override so
  /// scopes can nest; see ScopedMetricsDomain in shard code.
  static MetricsRegistry* set_current(MetricsRegistry* registry);

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// Tail-latency series ("flight.net.queue_ns",
  /// "flight.rf.detect_lag_ns.attack"): the snapshot's "latency" section.
  LogLinearHistogram& latency(std::string_view name);

  /// Folds this registry's instruments into `dst`: counters and histogram
  /// buckets add, gauges keep the maximum value/high-water (a merged
  /// snapshot answers "how bad did it get anywhere"). Used to collapse
  /// per-shard registries into one metrics snapshot.
  void merge_into(MetricsRegistry& dst) const;

  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Gauge, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const { return histograms_; }
  const std::map<std::string, LogLinearHistogram, std::less<>>& latencies() const {
    return latencies_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, LogLinearHistogram, std::less<>> latencies_;
};

/// Scoped stopwatch: charges real (wall) elapsed nanoseconds to a
/// histogram and/or a raw counter on destruction. Replaces the old
/// ids::ScopedCpuTimer; the raw-sink form keeps the resource-meter
/// slowdown-factor pipeline (ResourceMeterConfig) working unchanged.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist)
      : hist_{&hist}, start_{std::chrono::steady_clock::now()} {}
  explicit ScopedTimer(std::uint64_t& sink)
      : sink_{&sink}, start_{std::chrono::steady_clock::now()} {}
  ScopedTimer(Histogram& hist, std::uint64_t& sink)
      : hist_{&hist}, sink_{&sink}, start_{std::chrono::steady_clock::now()} {}

  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count());
    if (hist_) hist_->observe(ns);
    if (sink_) *sink_ += ns;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  std::uint64_t* sink_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ddoshield::obs

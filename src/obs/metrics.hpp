// Metrics substrate for the testbed (counters, gauges, histograms).
//
// Every layer of the system charges its counters into a process-global
// MetricsRegistry (mirroring the process-global Logger): components look
// their instruments up once at construction and keep raw pointers, so the
// hot path is a plain integer increment — no map lookup, no allocation,
// no branch on an "enabled" flag. Histograms use fixed log2 buckets so
// observing a latency is O(1) and allocation-free; quantiles are
// log-interpolated within the winning bucket, which is plenty for the
// order-of-magnitude questions the benches ask.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace ddoshield::obs {

/// Relaxed atomic counter for code that runs off the simulation thread
/// (the lifecycle's retrain worker). The registry's Counter / Gauge /
/// Histogram are deliberately unsynchronised — every other layer is
/// single-threaded and the hot path must stay a plain integer increment —
/// so cross-thread producers accumulate into a RelaxedCounter and the
/// owning component publishes the value into a registry instrument from
/// the simulation thread (see ml::lifecycle::LifecycleManager::publish_metrics).
class RelaxedCounter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

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

/// Log-scale histogram over non-negative integer samples (nanoseconds,
/// bytes, counts). Bucket i holds samples in [2^i, 2^(i+1)); sample 0
/// lands in bucket 0. Fixed storage, no allocation on observe().
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
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

  /// Value at quantile q in [0, 1], log-interpolated within the bucket.
  double quantile(double q) const;

  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  const std::array<std::uint64_t, kBuckets>& buckets() const { return buckets_; }

  /// Smallest sample value a bucket can hold (2^i; bucket 0 holds [0, 2)).
  static std::uint64_t bucket_floor(std::size_t i) { return i == 0 ? 0 : (1ull << i); }

  void reset() {
    buckets_.fill(0);
    count_ = sum_ = min_ = max_ = 0;
  }

  /// Shard-merge: histograms are bucket-wise sums, so merging shard-local
  /// histograms yields exactly the histogram a single-domain run records.
  void merge_from(const Histogram& other) {
    if (other.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < 2) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(v));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Named instrument store. Instruments live as long as the registry and
/// never move (std::map node stability), so callers cache the returned
/// references across the whole run.
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

  /// Folds this registry's instruments into `dst`: counters and histogram
  /// buckets add, gauges keep the maximum value/high-water (a merged
  /// snapshot answers "how bad did it get anywhere"). Used to collapse
  /// per-shard registries into one metrics snapshot.
  void merge_into(MetricsRegistry& dst) const;

  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Gauge, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const { return histograms_; }

  /// Zeroes every instrument but keeps registrations (and thus every
  /// pointer components cached) valid. Benches call this between phases.
  void reset();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
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

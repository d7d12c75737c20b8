// Unit tests for src/obs: metrics instruments (the histogram template
// against the implementations it replaced), scoped timers, sim-time
// tracing with Chrome export, and the JSON snapshot writer.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "snapshot_reader.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::obs {
namespace {

using util::SimTime;

// --------------------------------------------------------------------------
// Counter / Gauge
// --------------------------------------------------------------------------

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, TracksValueAndHighWater) {
  Gauge g;
  g.set(3.0);
  g.set(10.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 10.0);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 10.0);
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

TEST(HistogramTest, LogBucketsLandWhereExpected) {
  Histogram h;
  h.observe(0);     // bucket 0: [0, 2)
  h.observe(1);     // bucket 0
  h.observe(2);     // bucket 1: [2, 4)
  h.observe(3);     // bucket 1
  h.observe(1024);  // bucket 10
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantilesAreOrderedAndInRange) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Log-bucketed: p50 of uniform 1..1000 must land within a factor of 2.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.observe(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.buckets()[2], 0u);
}

TEST(HistogramTest, ExactPowersOfTwoOpenTheirOwnBucket) {
  // 2^k is the inclusive lower edge of bucket k, and 2^k - 1 is the
  // inclusive upper edge of bucket k-1 — the off-by-one the log2 bucketing
  // is most likely to get wrong.
  Histogram at_edge;
  for (std::size_t k = 1; k < Histogram::kBuckets; ++k) at_edge.observe(1ull << k);
  for (std::size_t k = 1; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(at_edge.buckets()[k], 1u) << "2^" << k;
  }
  EXPECT_EQ(at_edge.count(), Histogram::kBuckets - 1);

  Histogram below_edge;
  for (std::size_t k = 2; k < Histogram::kBuckets; ++k) below_edge.observe((1ull << k) - 1);
  for (std::size_t k = 2; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(below_edge.buckets()[k - 1], 1u) << "2^" << k << " - 1";
  }
}

TEST(HistogramTest, ZeroAndUint64MaxLandAtTheExtremes) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.buckets()[0], 2u);  // 0 and 1 share the [0, 2) bucket
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.count(), 3u);
}

TEST(HistogramTest, CountAlwaysEqualsBucketSum) {
  Histogram h;
  const std::uint64_t samples[] = {0, 1, 2, 3, 4, 1023, 1024, 1025,
                                   (1ull << 32), std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : samples) h.observe(v);
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets()) total += b;
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.count(), 10u);
}

TEST(HistogramTest, PercentileAccessorsMatchQuantile) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.p50(), h.quantile(0.50));
  EXPECT_DOUBLE_EQ(h.p90(), h.quantile(0.90));
  EXPECT_DOUBLE_EQ(h.p99(), h.quantile(0.99));
  EXPECT_DOUBLE_EQ(h.p999(), h.quantile(0.999));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), 10000.0);
}

TEST(HistogramTest, TopBucketQuantileInterpolatesInsteadOfDegenerating) {
  // Bucket 63 spans [2^63, 2^64); the old upper-edge clamp to 2^63 made
  // hi == lo there, so every quantile that landed in the top bucket
  // collapsed to its floor. With the ldexp edge the interpolation spreads
  // across the bucket and stays within the observed range.
  Histogram h;
  const std::uint64_t lo = 1ull << 63;
  const std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 100; ++i) h.observe(hi);
  h.observe(lo);
  const double p50 = h.quantile(0.50);
  EXPECT_GT(p50, static_cast<double>(lo));
  EXPECT_LE(p50, static_cast<double>(hi));
  // Quantiles remain ordered within the degenerate-prone bucket.
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  // Regression: with exactly one observation, interpolation used to put
  // p50/p90 partway through the sample's bucket — for a single top-bucket
  // sample (2^63) that reported quantiles ~2^62 away from the only value
  // ever observed. One sample IS the whole distribution.
  for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
           0, 1, 1000, 1ull << 63, std::numeric_limits<std::uint64_t>::max()}) {
    Histogram h;
    h.observe(v);
    const double expected = static_cast<double>(v);
    EXPECT_DOUBLE_EQ(h.p50(), expected) << "sample " << v;
    EXPECT_DOUBLE_EQ(h.p90(), expected) << "sample " << v;
    EXPECT_DOUBLE_EQ(h.p99(), expected) << "sample " << v;
    EXPECT_DOUBLE_EQ(h.p999(), expected) << "sample " << v;
  }
  // Same contract for the log-linear latency histogram.
  for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
           0, 1, 999'999, 1ull << 63, std::numeric_limits<std::uint64_t>::max()}) {
    LogLinearHistogram h;
    h.observe(v);
    const double expected = static_cast<double>(v);
    EXPECT_DOUBLE_EQ(h.p50(), expected) << "sample " << v;
    EXPECT_DOUBLE_EQ(h.p99(), expected) << "sample " << v;
    EXPECT_DOUBLE_EQ(h.p999(), expected) << "sample " << v;
  }
}

TEST(HistogramTest, QuantileAtPowerOfTwoBoundaryStaysInBucketRange) {
  // All mass exactly on a bucket's lower edge: interpolation must not
  // escape [min, max] on either side of the boundary.
  for (const std::uint64_t edge : {2ull, 1024ull, 1ull << 32, 1ull << 62}) {
    Histogram h;
    for (int i = 0; i < 10; ++i) h.observe(edge);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), static_cast<double>(edge)) << "edge " << edge;
    EXPECT_DOUBLE_EQ(h.p999(), static_cast<double>(edge)) << "edge " << edge;
  }
}

TEST(HistogramTest, BucketFloorAgreesWithBucketAssignment) {
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 2u);
  EXPECT_EQ(Histogram::bucket_floor(10), 1024u);
  EXPECT_EQ(Histogram::bucket_floor(63), 1ull << 63);
  // A sample equal to bucket_floor(k) must land in bucket k.
  for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
    Histogram h;
    h.observe(Histogram::bucket_floor(k));
    EXPECT_EQ(h.buckets()[k], 1u) << "floor of bucket " << k;
  }
}

// --------------------------------------------------------------------------
// Histogram template vs the two classes it replaced
// --------------------------------------------------------------------------

// The log2 and log-linear histograms as separate classes, verbatim in
// everything that decides a value: bucket index, bucket floor, and the
// quantile walk with its single-sample, q <= 0 / q >= 1 and clamp cases.
// BucketHistogram must reproduce them bit for bit, or the v2 goldens and
// every ".p99" series would move.
struct ParentLog2Histogram {
  static constexpr std::size_t kBuckets = 64;
  static std::size_t index_of(std::uint64_t v) {
    if (v < 2) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(v));
  }
  static std::uint64_t bucket_floor(std::size_t i) { return i == 0 ? 0 : (1ull << i); }
  double interpolate(std::size_t i, double into) const {
    const double lo = static_cast<double>(i == 0 ? 1 : (1ull << i));
    const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
    return lo * std::pow(hi / lo, into);
  }
  std::array<std::uint64_t, kBuckets> buckets{};
};

struct ParentLogLinearHistogram {
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = 2 * kSub + (63 - kSubBits) * kSub;
  static std::size_t index_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           (static_cast<std::size_t>(v >> shift) & (kSub - 1));
  }
  static std::uint64_t bucket_floor(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::uint64_t shift = i / kSub - 1;
    const std::uint64_t sub = i % kSub;
    return (kSub + sub) << shift;
  }
  static std::uint64_t bucket_width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return 1ull << (i / kSub - 1);
  }
  double interpolate(std::size_t i, double into) const {
    const double lo = static_cast<double>(bucket_floor(i));
    const double width = static_cast<double>(bucket_width(i));
    return lo + width * into;
  }
  std::array<std::uint64_t, kBuckets> buckets{};
};

// The shared state and quantile walk both parents carried.
template <typename Layout>
struct ParentHistogram : Layout {
  std::uint64_t count = 0, sum = 0, min_ = 0, max = 0;

  void observe(std::uint64_t v) {
    ++this->buckets[Layout::index_of(v)];
    ++count;
    sum += v;
    if (count == 1 || v < min_) min_ = v;
    if (v > max) max = v;
  }
  void merge_from(const ParentHistogram& other) {
    if (other.count == 0) return;
    for (std::size_t i = 0; i < Layout::kBuckets; ++i) this->buckets[i] += other.buckets[i];
    if (count == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
  }
  void reset() { *this = ParentHistogram{}; }
  std::uint64_t min() const { return count ? min_ : 0; }
  double quantile(double q) const {
    if (count == 0) return 0.0;
    if (count == 1) return static_cast<double>(min());
    if (q <= 0.0) return static_cast<double>(min());
    if (q >= 1.0) return static_cast<double>(max);
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < Layout::kBuckets; ++i) {
      if (this->buckets[i] == 0) continue;
      seen += this->buckets[i];
      if (static_cast<double>(seen) >= target) {
        const double into = 1.0 - (static_cast<double>(seen) - target) /
                                      static_cast<double>(this->buckets[i]);
        const double v = this->interpolate(i, into);
        return std::min(std::max(v, static_cast<double>(min())), static_cast<double>(max));
      }
    }
    return static_cast<double>(max);
  }
};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <typename Ref, typename Hist>
void expect_same_histogram(const Ref& ref, const Hist& h, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(Hist::kBuckets, Ref::kBuckets);
  for (std::size_t i = 0; i < Hist::kBuckets; ++i) {
    ASSERT_EQ(h.buckets()[i], ref.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.sum(), ref.sum);
  EXPECT_EQ(h.min(), ref.min());
  EXPECT_EQ(h.max(), ref.max);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(bits_of(h.quantile(q)), bits_of(ref.quantile(q))) << "q=" << q;
  }
}

// Edge values (0, 1, 2^k - 1, 2^k, 2^63, UINT64_MAX) plus seeded samples
// spread over every magnitude.
std::vector<std::uint64_t> oracle_samples() {
  std::vector<std::uint64_t> v{0, 1, 1ull << 63, std::numeric_limits<std::uint64_t>::max()};
  for (int k = 1; k < 64; ++k) {
    v.push_back((1ull << k) - 1);
    v.push_back(1ull << k);
  }
  util::Rng rng{2024};
  for (int i = 0; i < 4000; ++i) {
    const auto shift = static_cast<int>(rng.uniform_u64(64));
    v.push_back(rng.next_u64() >> shift);
  }
  return v;
}

template <typename Layout, typename Hist>
void check_against_parent() {
  const std::vector<std::uint64_t> samples = oracle_samples();
  for (const std::uint64_t v : samples) {
    ASSERT_EQ(Hist::index_of(v), Layout::index_of(v)) << "value " << v;
  }
  for (std::size_t i = 0; i < Hist::kBuckets; ++i) {
    ASSERT_EQ(Hist::bucket_floor(i), Layout::bucket_floor(i)) << "bucket " << i;
  }

  ParentHistogram<Layout> ref;
  Hist h;
  expect_same_histogram(ref, h, "empty");
  for (const std::uint64_t v : samples) {
    ref.observe(v);
    h.observe(v);
  }
  expect_same_histogram(ref, h, "all samples");

  // Single samples: each edge value alone.
  for (std::size_t i = 0; i < 130; ++i) {
    ParentHistogram<Layout> one_ref;
    Hist one;
    one_ref.observe(samples[i]);
    one.observe(samples[i]);
    expect_same_histogram(one_ref, one, "single " + std::to_string(samples[i]));
  }

  // Merged halves, and a reset histogram refilled with a tail.
  ParentHistogram<Layout> lo_ref, hi_ref;
  Hist lo, hi;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 2 ? hi_ref : lo_ref).observe(samples[i]);
    (i % 2 ? hi : lo).observe(samples[i]);
  }
  lo_ref.merge_from(hi_ref);
  lo.merge_from(hi);
  expect_same_histogram(lo_ref, lo, "merged");
  lo_ref.reset();
  lo.reset();
  expect_same_histogram(lo_ref, lo, "reset");
  for (std::size_t i = 200; i < 300; ++i) {
    lo_ref.observe(samples[i]);
    lo.observe(samples[i]);
  }
  expect_same_histogram(lo_ref, lo, "reset then refilled");
}

TEST(HistogramOracleTest, Log2LayoutMatchesTheParentClassBitForBit) {
  check_against_parent<ParentLog2Histogram, Histogram>();
}

TEST(HistogramOracleTest, LogLinearLayoutMatchesTheParentClassBitForBit) {
  check_against_parent<ParentLogLinearHistogram, LogLinearHistogram>();
}

// --------------------------------------------------------------------------
// MetricsRegistry
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_NE(&reg.counter("y"), &a);
}

TEST(MetricsRegistryTest, InstrumentPointersSurviveGrowth) {
  MetricsRegistry reg;
  Counter* first = &reg.counter("first");
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  first->inc();
  EXPECT_EQ(reg.counter("first").value(), 1u);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

// --------------------------------------------------------------------------
// ScopedTimer
// --------------------------------------------------------------------------

TEST(ScopedTimerTest, ChargesHistogramAndSink) {
  Histogram h;
  std::uint64_t sink = 0;
  {
    ScopedTimer timer{h, sink};
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(h.sum(), sink);
}

TEST(ScopedTimerTest, SinkOnlyFormMatchesOldScopedCpuTimer) {
  std::uint64_t sink = 0;
  { ScopedTimer timer{sink}; }
  // Even an empty scope takes a nonzero number of wall nanoseconds on any
  // real clock; mainly we care that the sink was written exactly once.
  const std::uint64_t first = sink;
  { ScopedTimer timer{sink}; }
  EXPECT_GE(sink, first);
}

// --------------------------------------------------------------------------
// TraceRecorder
// --------------------------------------------------------------------------

// Pulls every numeric value following `"key":` out of a JSON string.
std::vector<double> extract_numbers(const std::string& json, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  trace.span("s", "cat", SimTime::millis(1), SimTime::millis(2));
  trace.instant("i", "cat", SimTime::millis(3));
  trace.counter("c", SimTime::millis(4), 1.0);
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorderTest, ExportsMonotonicSimTimeMicros) {
  TraceRecorder trace;
  trace.set_enabled(true);
  // Record deliberately out of order; export must sort by ts.
  trace.instant("late", "ids", SimTime::millis(30));
  trace.span("window", "ids", SimTime::millis(10), SimTime::millis(5));
  trace.counter("queue", SimTime::millis(20), 17.0);
  EXPECT_EQ(trace.size(), 3u);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  const std::vector<double> ts = extract_numbers(json, "ts");
  ASSERT_EQ(ts.size(), 3u);
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LE(ts[i - 1], ts[i]);
  // ts is sim-time microseconds: 10 ms span start -> 10'000 us first.
  EXPECT_DOUBLE_EQ(ts[0], 10'000.0);
  EXPECT_DOUBLE_EQ(ts[1], 20'000.0);
  EXPECT_DOUBLE_EQ(ts[2], 30'000.0);
  const std::vector<double> dur = extract_numbers(json, "dur");
  ASSERT_EQ(dur.size(), 1u);
  EXPECT_DOUBLE_EQ(dur[0], 5'000.0);
}

TEST(TraceRecorderTest, ExportIsStructurallyValidJson) {
  TraceRecorder trace;
  trace.set_enabled(true);
  trace.span("a \"quoted\" name", "net", SimTime::nanos(1500), SimTime::nanos(500));
  trace.instant("i", "net", SimTime::seconds(1));
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();

  // Braces and brackets balance and never go negative outside strings.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // Sub-microsecond timestamps keep nanosecond precision: 1500 ns = 1.5 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
}

TEST(TraceRecorderTest, ClearEmptiesTheBuffer) {
  TraceRecorder trace;
  trace.set_enabled(true);
  trace.instant("i", "c", SimTime{});
  EXPECT_EQ(trace.size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceRecorderTest, EventBudgetDropsAndCounts) {
  auto& reg = MetricsRegistry::global();
  const std::uint64_t dropped_before = reg.counter("trace.dropped_events").value();

  TraceRecorder trace;
  trace.set_enabled(true);
  trace.set_event_budget(3);
  EXPECT_EQ(trace.event_budget(), 3u);
  for (int i = 0; i < 10; ++i) trace.instant("i", "c", SimTime::millis(i));
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped_events(), 7u);
  EXPECT_EQ(reg.counter("trace.dropped_events").value() - dropped_before, 7u);

  // Spans and counters go through the same gate.
  trace.span("s", "c", SimTime::millis(1), SimTime::millis(1));
  trace.counter("q", SimTime::millis(2), 1.0);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped_events(), 9u);

  // clear() resets both the buffer and the drop tally, so a fresh trace
  // window starts with a full budget again.
  trace.clear();
  EXPECT_EQ(trace.dropped_events(), 0u);
  trace.instant("again", "c", SimTime::millis(3));
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.dropped_events(), 0u);
}

// --------------------------------------------------------------------------
// LogLinearHistogram + registry latency series
// --------------------------------------------------------------------------

TEST(LogLinearHistogramTest, ValuesBelowTwoOctavesAreExact) {
  for (std::uint64_t v = 0; v < 2 * LogLinearHistogram::kSub; ++v) {
    EXPECT_EQ(LogLinearHistogram::index_of(v), v);
    EXPECT_EQ(LogLinearHistogram::bucket_floor(v), v);
    EXPECT_EQ(LogLinearHistogram::bucket_width(v), 1u);
  }
  LogLinearHistogram h;
  h.observe(42);
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p999(), 42.0);
}

TEST(LogLinearHistogramTest, BucketGeometryIsConsistent) {
  // Every bucket: floor lands back in the bucket, floor+width-1 stays in
  // it, and floor+width starts the next one (up to uint64 range).
  for (std::size_t i = 0; i + 1 < LogLinearHistogram::kBuckets; ++i) {
    const std::uint64_t lo = LogLinearHistogram::bucket_floor(i);
    const std::uint64_t w = LogLinearHistogram::bucket_width(i);
    EXPECT_EQ(LogLinearHistogram::index_of(lo), i) << "bucket " << i;
    EXPECT_EQ(LogLinearHistogram::index_of(lo + w - 1), i) << "bucket " << i;
    EXPECT_EQ(LogLinearHistogram::index_of(lo + w), i + 1) << "bucket " << i;
    EXPECT_EQ(LogLinearHistogram::bucket_floor(i + 1), lo + w) << "bucket " << i;
  }
}

TEST(LogLinearHistogramTest, RelativeErrorBoundedByOneOverSub) {
  // Any single recorded value's p50 comes back within 1/kSub of itself.
  LogLinearHistogram h;
  std::uint64_t v = 1;
  for (int i = 0; i < 60; ++i, v = v * 3 + 7) {
    h.reset();
    h.observe(v);
    const double err = std::abs(h.p50() - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LE(err, 1.0 / LogLinearHistogram::kSub) << "value " << v;
  }
}

TEST(LogLinearHistogramTest, QuantilesAreOrderedAndClamped) {
  LogLinearHistogram h;
  for (std::uint64_t v = 100; v <= 100000; v += 37) h.observe(v);
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_GE(h.p50(), static_cast<double>(h.min()));
  EXPECT_LE(h.p999(), static_cast<double>(h.max()));
  // Uniform spacing: the median should be near the midpoint within the
  // histogram's relative-error bound.
  const double mid = (100.0 + 100000.0) / 2.0;
  EXPECT_NEAR(h.p50(), mid, mid / LogLinearHistogram::kSub + 37.0);
}

TEST(LogLinearHistogramTest, TracksCountSumMinMaxMeanAndResets) {
  LogLinearHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(10);
  h.observe(30);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 40u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(MetricsRegistryTest, LatencySeriesAreNamedAndStable) {
  MetricsRegistry reg;
  LogLinearHistogram& a = reg.latency("flight.a");
  LogLinearHistogram& b = reg.latency("flight.b");
  EXPECT_NE(&a, &b);
  // Re-resolving and registering more series returns the same node.
  a.observe(5);
  for (int i = 0; i < 64; ++i) reg.latency("flight.fill." + std::to_string(i));
  EXPECT_EQ(&reg.latency("flight.a"), &a);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(reg.latencies().size(), 66u);
  // A latency series is its own instrument kind, apart from histograms.
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(MetricsRegistryTest, MergeIntoAddsLatencySeriesBucketWise) {
  MetricsRegistry shard_a, shard_b, merged, single;
  for (std::uint64_t v : {3ull, 70ull, 5000ull}) {
    shard_a.latency("flight.lag").observe(v);
    single.latency("flight.lag").observe(v);
  }
  for (std::uint64_t v : {1ull, 1ull << 40}) {
    shard_b.latency("flight.lag").observe(v);
    single.latency("flight.lag").observe(v);
  }
  shard_b.latency("flight.only_b").observe(9);
  shard_a.merge_into(merged);
  shard_b.merge_into(merged);
  const LogLinearHistogram& got = merged.latency("flight.lag");
  const LogLinearHistogram& want = single.latency("flight.lag");
  EXPECT_EQ(got.buckets(), want.buckets());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.sum(), want.sum());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  EXPECT_EQ(merged.latency("flight.only_b").count(), 1u);
}

// --------------------------------------------------------------------------
// Snapshot writer
// --------------------------------------------------------------------------

TEST(SnapshotTest, EmitsAllSectionsWithValues) {
  MetricsRegistry reg;
  reg.counter("net.packets").inc(123);
  reg.gauge("queue.depth").set(4.5);
  reg.histogram("lat.ns").observe(1000);
  reg.histogram("lat.ns").observe(3000);

  std::ostringstream os;
  write_json_snapshot(reg, os);
  const std::string json = os.str();

  // The default writer now emits the v2 schema: everything v1 had, plus a
  // p999 per histogram and a top-level latency section.
  EXPECT_NE(json.find("\"schema\": \"ddoshield-metrics-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"net.packets\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"high_water\": 4.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat.ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 4000"), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);

  // Structural validity: balanced braces outside strings.
  int depth = 0;
  bool in_string = false;
  for (const char c : json) {
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SnapshotTest, EmptyRegistrySnapshotIsValid) {
  MetricsRegistry reg;
  std::ostringstream os;
  write_json_snapshot(reg, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
}

// The fixture behind tests/golden/metrics_snapshot_v1.json. Values are
// chosen to exercise every section: an escaped name, a negative gauge,
// and a histogram whose quantiles need log interpolation.
void fill_golden_fixture_registry(MetricsRegistry& reg) {
  reg.counter("net.link.tx_packets").inc(123456);
  reg.counter("net.link.dropped_packets").inc(789);
  reg.counter("weird\"name\\with.escapes").inc(1);
  reg.gauge("ids.queue_depth").set(7.0);
  reg.gauge("ids.queue_depth").set(2.5);
  reg.gauge("net.backlog").set(-1.25);
  auto& h = reg.histogram("ids.window_infer_ns");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 1023ull, 1024ull, 1ull << 20}) h.observe(v);
  reg.histogram("empty.histogram");
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string{DDOS_TEST_DATA_DIR} + "/golden/" + name;
  std::ifstream in{path};
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

// The "ddoshield-metrics-v1" golden was written from this fixture when v1
// was the writer's schema. Registries are written as v2 now; everything v1
// carried must still read back identically from a v2 snapshot of the same
// fixture, and the v1 bytes must still round-trip through the reader and
// the test reader's SnapshotData writer.
TEST(SnapshotTest, MatchesGoldenFile) {
  const std::string golden = read_golden("metrics_snapshot_v1.json");
  SnapshotData v1;
  std::istringstream golden_in{golden};
  ASSERT_TRUE(read_json_snapshot(golden_in, v1));
  EXPECT_EQ(v1.schema, "ddoshield-metrics-v1");
  std::ostringstream rewritten;
  write_json_snapshot(v1, rewritten);
  EXPECT_EQ(rewritten.str(), golden);

  MetricsRegistry reg;
  fill_golden_fixture_registry(reg);
  std::ostringstream os;
  write_json_snapshot(reg, os);
  SnapshotData v2;
  std::istringstream v2_in{os.str()};
  ASSERT_TRUE(read_json_snapshot(v2_in, v2));
  EXPECT_EQ(v2.counters, v1.counters);
  ASSERT_EQ(v2.gauges.size(), v1.gauges.size());
  for (const auto& [name, g] : v1.gauges) {
    EXPECT_EQ(v2.gauges.at(name).value, g.value) << name;
    EXPECT_EQ(v2.gauges.at(name).high_water, g.high_water) << name;
  }
  ASSERT_EQ(v2.histograms.size(), v1.histograms.size());
  for (const auto& [name, h] : v1.histograms) {
    const SnapshotHistogram& got = v2.histograms.at(name);
    EXPECT_EQ(got.count, h.count) << name;
    EXPECT_EQ(got.sum, h.sum) << name;
    EXPECT_EQ(got.min, h.min) << name;
    EXPECT_EQ(got.max, h.max) << name;
    EXPECT_EQ(got.mean, h.mean) << name;
    EXPECT_EQ(got.p50, h.p50) << name;
    EXPECT_EQ(got.p90, h.p90) << name;
    EXPECT_EQ(got.p99, h.p99) << name;
  }
}

// Same fixture plus latency series: pins the v2 bytes the way the v1
// golden pins v1.
TEST(SnapshotTest, MatchesGoldenFileV2) {
  MetricsRegistry reg;
  fill_golden_fixture_registry(reg);
  auto& series = reg.latency("flight.net.queue_ns");
  for (std::uint64_t v : {0ull, 63ull, 64ull, 1000ull, 1ull << 20}) series.observe(v);
  reg.latency("flight.empty_series");

  std::ostringstream os;
  write_json_snapshot(reg, os);

  const std::string path = std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2.json";
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(os.str(), golden.str());
}

// The v2 fixture extended with the model-lifecycle metrics exactly as
// RealTimeIds publishes them: the ids.model_version gauge plus the
// lifecycle.* counters and gauges (DESIGN.md §14).
void fill_lifecycle_fixture_registry(MetricsRegistry& reg) {
  fill_golden_fixture_registry(reg);
  reg.counter("lifecycle.retrains_triggered").inc(3);
  reg.counter("lifecycle.retrains_completed").inc(2);
  reg.counter("lifecycle.retrain_noops").inc(1);
  reg.counter("lifecycle.swaps").inc(2);
  reg.counter("lifecycle.drift_alarms").inc(1);
  reg.counter("lifecycle.drift_windows").inc(4);
  reg.gauge("ids.model_version").set(3.0);
  reg.gauge("lifecycle.replay_rows").set(1024.0);
  reg.gauge("lifecycle.pending_swaps").set(1.0);
  reg.gauge("lifecycle.drift.max_score").set(4.25);
  reg.gauge("lifecycle.drift.mean_score").set(0.875);
  reg.gauge("lifecycle.drift.f0").set(4.25);
  reg.gauge("lifecycle.drift.f1").set(0.5);
}

// Pins the v2 bytes with the lifecycle keys present: the schema string is
// unchanged (the keys are additive), so this golden is what a
// lifecycle-enabled run's BENCH/flight snapshot looks like.
TEST(SnapshotTest, MatchesGoldenFileV2Lifecycle) {
  MetricsRegistry reg;
  fill_lifecycle_fixture_registry(reg);
  std::ostringstream os;
  write_json_snapshot(reg, os);

  const std::string path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_lifecycle.json";
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(os.str(), golden.str());
}

// The v2 fixture extended with the columnar-capture metrics exactly as
// PacketTap and the sharded IDS pipeline publish them: the capture.tap.*
// and capture.batch.* counters plus the ids.window_close_ns histogram
// (DESIGN.md §15). Keys are additive — no schema bump.
void fill_capture_batch_fixture_registry(MetricsRegistry& reg) {
  fill_golden_fixture_registry(reg);
  reg.counter("capture.tap.packets").inc(5835);
  reg.counter("capture.tap.dropped").inc(12);
  reg.counter("capture.tap.late_sink").inc(1);
  reg.counter("capture.batch.flushes").inc(23);
  reg.counter("capture.batch.records").inc(5835);
  reg.counter("capture.batch.partial_flushes").inc(3);
  auto& close = reg.histogram("ids.window_close_ns");
  for (std::uint64_t v : {20000ull, 150000ull, 1200000ull}) close.observe(v);
}

// Pins the v2 bytes with the columnar-capture keys present: what an
// ids-enabled sharded run's snapshot looks like.
TEST(SnapshotTest, MatchesGoldenFileV2CaptureBatch) {
  MetricsRegistry reg;
  fill_capture_batch_fixture_registry(reg);
  std::ostringstream os;
  write_json_snapshot(reg, os);

  const std::string path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_capture.json";
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(os.str(), golden.str());
}

// Pre-batch snapshots read cleanly (the capture keys are simply absent)
// and batch-era snapshots read with them present — same schema string,
// same reader, every old key intact.
TEST(SnapshotTest, PreCaptureBatchV2SnapshotsStillRead) {
  const std::string old_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2.json";
  std::ifstream old_in{old_path};
  ASSERT_TRUE(old_in.is_open()) << "missing golden file: " << old_path;
  SnapshotData old_data;
  ASSERT_TRUE(read_json_snapshot(old_in, old_data));
  EXPECT_EQ(old_data.counters.count("capture.batch.flushes"), 0u);
  EXPECT_EQ(old_data.histograms.count("ids.window_close_ns"), 0u);

  const std::string new_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_capture.json";
  std::ifstream new_in{new_path};
  ASSERT_TRUE(new_in.is_open()) << "missing golden file: " << new_path;
  SnapshotData new_data;
  ASSERT_TRUE(read_json_snapshot(new_in, new_data));
  EXPECT_EQ(new_data.schema, old_data.schema);
  EXPECT_EQ(new_data.counters.at("capture.batch.flushes"), 23u);
  EXPECT_EQ(new_data.counters.at("capture.batch.records"), 5835u);
  EXPECT_EQ(new_data.counters.at("capture.tap.late_sink"), 1u);
  EXPECT_EQ(new_data.histograms.at("ids.window_close_ns").count, 3u);
  for (const auto& [name, value] : old_data.counters) {
    EXPECT_EQ(new_data.counters.at(name), value) << name;
  }
}

// Back-compat both ways: pre-lifecycle v2 snapshots read cleanly (the new
// keys are simply absent), and lifecycle-era snapshots read with them
// present — no schema bump, no reader change.
TEST(SnapshotTest, PreLifecycleV2SnapshotsStillRead) {
  const std::string old_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2.json";
  std::ifstream old_in{old_path};
  ASSERT_TRUE(old_in.is_open()) << "missing golden file: " << old_path;
  SnapshotData old_data;
  ASSERT_TRUE(read_json_snapshot(old_in, old_data));
  EXPECT_EQ(old_data.schema, "ddoshield-metrics-v2");
  EXPECT_EQ(old_data.counters.count("lifecycle.swaps"), 0u);
  EXPECT_EQ(old_data.gauges.count("ids.model_version"), 0u);

  const std::string new_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_lifecycle.json";
  std::ifstream new_in{new_path};
  ASSERT_TRUE(new_in.is_open()) << "missing golden file: " << new_path;
  SnapshotData new_data;
  ASSERT_TRUE(read_json_snapshot(new_in, new_data));
  EXPECT_EQ(new_data.schema, old_data.schema);
  EXPECT_EQ(new_data.counters.at("lifecycle.swaps"), 2u);
  EXPECT_EQ(new_data.counters.at("lifecycle.retrains_triggered"), 3u);
  EXPECT_DOUBLE_EQ(new_data.gauges.at("ids.model_version").value, 3.0);
  EXPECT_DOUBLE_EQ(new_data.gauges.at("lifecycle.drift.max_score").value, 4.25);
  // Every pre-lifecycle key survives unchanged in the extended snapshot.
  for (const auto& [name, value] : old_data.counters) {
    EXPECT_EQ(new_data.counters.at(name), value) << name;
  }
}

// The v2 fixture extended with the telemetry-era metrics: the trace
// recorder's dropped-event counter, the sampler's tick-overrun counter,
// and the SLO watchdog's alert/breach counters (DESIGN.md §16). Keys are
// additive — no schema bump.
void fill_telemetry_fixture_registry(MetricsRegistry& reg) {
  fill_golden_fixture_registry(reg);
  reg.counter("trace.dropped_events").inc(42);
  reg.counter("obs.sampler.tick_overruns").inc(3);
  reg.counter("slo.alerts").inc(5);
  reg.counter("slo.alerts.fatal").inc(1);
  reg.counter("slo.breach.detect-lag-p99").inc(4);
  reg.counter("slo.breach.channel-overflow").inc(1);
}

// Pins the v2 bytes with the telemetry keys present: what a run with
// --timeseries --slo looks like in a BENCH/flight snapshot.
TEST(SnapshotTest, MatchesGoldenFileV2Telemetry) {
  MetricsRegistry reg;
  fill_telemetry_fixture_registry(reg);
  std::ostringstream os;
  write_json_snapshot(reg, os);

  const std::string path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_telemetry.json";
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(os.str(), golden.str());
}

// Pre-telemetry snapshots read cleanly (the new counters are simply
// absent) and telemetry-era snapshots read with them present — same
// schema string, same reader, every old key intact.
TEST(SnapshotTest, PreTelemetryV2SnapshotsStillRead) {
  const std::string old_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2.json";
  std::ifstream old_in{old_path};
  ASSERT_TRUE(old_in.is_open()) << "missing golden file: " << old_path;
  SnapshotData old_data;
  ASSERT_TRUE(read_json_snapshot(old_in, old_data));
  EXPECT_EQ(old_data.counters.count("trace.dropped_events"), 0u);
  EXPECT_EQ(old_data.counters.count("slo.alerts"), 0u);

  const std::string new_path =
      std::string{DDOS_TEST_DATA_DIR} + "/golden/metrics_snapshot_v2_telemetry.json";
  std::ifstream new_in{new_path};
  ASSERT_TRUE(new_in.is_open()) << "missing golden file: " << new_path;
  SnapshotData new_data;
  ASSERT_TRUE(read_json_snapshot(new_in, new_data));
  EXPECT_EQ(new_data.schema, old_data.schema);
  EXPECT_EQ(new_data.counters.at("trace.dropped_events"), 42u);
  EXPECT_EQ(new_data.counters.at("obs.sampler.tick_overruns"), 3u);
  EXPECT_EQ(new_data.counters.at("slo.alerts"), 5u);
  EXPECT_EQ(new_data.counters.at("slo.alerts.fatal"), 1u);
  EXPECT_EQ(new_data.counters.at("slo.breach.detect-lag-p99"), 4u);
  for (const auto& [name, value] : old_data.counters) {
    EXPECT_EQ(new_data.counters.at(name), value) << name;
  }
}

// --------------------------------------------------------------------------
// Snapshot reader: v1 and v2 round-trip byte-identically
// --------------------------------------------------------------------------

TEST(SnapshotTest, ReaderRoundTripsV1Bytes) {
  const std::string original = read_golden("metrics_snapshot_v1.json");

  SnapshotData data;
  std::istringstream in{original};
  ASSERT_TRUE(read_json_snapshot(in, data));
  EXPECT_EQ(data.schema, "ddoshield-metrics-v1");
  EXPECT_EQ(data.counters.at("net.link.tx_packets"), 123456u);
  EXPECT_EQ(data.counters.at("weird\"name\\with.escapes"), 1u);
  EXPECT_DOUBLE_EQ(data.gauges.at("net.backlog").value, -1.25);
  EXPECT_DOUBLE_EQ(data.gauges.at("ids.queue_depth").high_water, 7.0);
  EXPECT_EQ(data.histograms.at("ids.window_infer_ns").count, 6u);

  // Re-serializing the parsed structure reproduces the input exactly:
  // %.17g is injective on doubles, so no information is lost in transit.
  std::ostringstream rewritten;
  write_json_snapshot(data, rewritten);
  EXPECT_EQ(rewritten.str(), original);
}

TEST(SnapshotTest, ReaderRoundTripsV2Bytes) {
  MetricsRegistry reg;
  fill_golden_fixture_registry(reg);
  auto& series = reg.latency("flight.net.queue_ns");
  for (std::uint64_t v : {1ull, 100ull, 10000ull}) series.observe(v);

  std::ostringstream os;
  write_json_snapshot(reg, os);
  const std::string original = os.str();

  SnapshotData data;
  std::istringstream in{original};
  ASSERT_TRUE(read_json_snapshot(in, data));
  EXPECT_EQ(data.schema, "ddoshield-metrics-v2");
  EXPECT_EQ(data.latency.at("flight.net.queue_ns").count, 3u);
  EXPECT_GT(data.histograms.at("ids.window_infer_ns").p999, 0.0);

  std::ostringstream rewritten;
  write_json_snapshot(data, rewritten);
  EXPECT_EQ(rewritten.str(), original);
}

// A snapshot that names the same instrument twice disagrees with itself:
// the reader must refuse it rather than silently keep one of the two
// values, and must say which name collided so the operator can find it.
TEST(SnapshotTest, ReaderRejectsDuplicateMetricNames) {
  const std::string dup_counter =
      "{\n  \"schema\": \"ddoshield-metrics-v1\",\n  \"counters\": {\n"
      "    \"net.packets\": 1,\n    \"net.packets\": 2\n  },\n"
      "  \"gauges\": {},\n  \"histograms\": {}\n}\n";
  SnapshotData data;
  std::istringstream in{dup_counter};
  std::string error;
  EXPECT_FALSE(read_json_snapshot(in, data, &error));
  EXPECT_EQ(error, "duplicate metric name: net.packets");

  // Gauges and histograms are checked the same way.
  const std::string dup_gauge =
      "{\n  \"schema\": \"ddoshield-metrics-v1\",\n  \"counters\": {},\n"
      "  \"gauges\": {\n"
      "    \"q.depth\": { \"value\": 1, \"high_water\": 1 },\n"
      "    \"q.depth\": { \"value\": 2, \"high_water\": 2 }\n  },\n"
      "  \"histograms\": {}\n}\n";
  SnapshotData gauge_data;
  std::istringstream gauge_in{dup_gauge};
  error.clear();
  EXPECT_FALSE(read_json_snapshot(gauge_in, gauge_data, &error));
  EXPECT_EQ(error, "duplicate metric name: q.depth");

  // The error out-param stays empty for other malformations.
  SnapshotData bad_data;
  std::istringstream bad_in{"{\"schema\": \"nope\"}"};
  error = "stale";
  EXPECT_FALSE(read_json_snapshot(bad_in, bad_data, &error));
  EXPECT_TRUE(error.empty());
}

TEST(SnapshotTest, ReaderRejectsMalformedInput) {
  for (const char* bad : {"", "{", "{\"schema\": \"nope\"", "not json at all",
                          "{\"schema\": \"ddoshield-metrics-v1\", \"counters\": {"}) {
    SnapshotData data;
    std::istringstream in{bad};
    EXPECT_FALSE(read_json_snapshot(in, data)) << "accepted: " << bad;
  }
}

// --------------------------------------------------------------------------
// Wiring: the net layer charges the global registry
// --------------------------------------------------------------------------

TEST(WiringTest, SimulatorChargesGlobalCounters) {
  auto& reg = MetricsRegistry::global();
  const std::uint64_t scheduled_before = reg.counter("net.sim.events_scheduled").value();
  const std::uint64_t executed_before = reg.counter("net.sim.events_executed").value();
  const std::uint64_t cancelled_before = reg.counter("net.sim.events_cancelled").value();

  net::Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(SimTime::millis(i), [] {});
  net::EventHandle dropped = sim.schedule(SimTime::millis(10), [] {});
  dropped.cancel();
  sim.run_all();

  EXPECT_EQ(reg.counter("net.sim.events_scheduled").value() - scheduled_before, 6u);
  EXPECT_EQ(reg.counter("net.sim.events_executed").value() - executed_before, 5u);
  EXPECT_EQ(reg.counter("net.sim.events_cancelled").value() - cancelled_before, 1u);
  EXPECT_EQ(sim.queue_high_water(), 6u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace ddoshield::obs

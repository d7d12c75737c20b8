// Shared pieces of the repository benchmark: an in-memory span tracer, the
// forwarding classifier that times model scoring, and the result report
// run.py checks and prints.
//
// Everything here sits outside the library: spans are recorded around calls
// into the public entry points (core::run_generation, core::train_all_models,
// core::run_detection, core::Testbed, core::run_shard_workload,
// ml::Classifier), so a change to any layer is measured as it ships.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ids/realtime_ids.hpp"
#include "ml/classifier.hpp"

namespace perfbench {

using namespace ddoshield;  // core::, ml::, ids:: ... name the library layers
using Clock = std::chrono::steady_clock;

/// Set-ups a scale workload times per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

double seconds_between(Clock::time_point t0, Clock::time_point t1);
double median(std::vector<double> v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // spans are written here when the run ends
};

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the span list, -1 for a root
};

/// Spans of one workload run, kept in memory and written out at the end.
/// Spans nest through open()/close() on the driving thread; record() adds a
/// finished span under the innermost open one, which is how scoring calls
/// made from inside a library call (possibly on a simulation worker thread
/// while the driving thread is blocked in that call) get their parent.
class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id);

  bool enabled() const { return enabled_; }
  std::uint64_t run_id() const { return run_id_; }

  std::int32_t open(std::string name);
  void close(std::int32_t id);
  void record(std::string name, Clock::time_point start, Clock::time_point end);

  /// Sum of the durations of every span with this name, in seconds.
  double total_s(std::string_view name) const;
  /// Sum over spans with this name of duration minus their children's.
  double self_s(std::string_view name) const;

  /// Writes {"run_id", "spans": [...]} as JSON; false if the file fails.
  bool write_json(const std::string& path, std::string_view workload) const;

 private:
  bool enabled_;
  std::uint64_t run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Opens a span for the lifetime of the scope (no-op when tracing is off).
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name)
      : tracer_{tracer}, id_{tracer.enabled() ? tracer.open(std::move(name)) : -1} {}
  ~SpanScope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

// --- the served-model wrapper ---------------------------------------------------

/// Forwards every ml::Classifier virtual to the wrapped model and times
/// score_batch (the serving entry point both IDS pipelines call), in the
/// shape of core::SkewServedClassifier. Serving through it must leave every
/// verdict unchanged; the traced runs and --selftest check exactly that.
/// Not for the offloaded InferenceEngine: the tallies are plain members.
class TimedClassifier final : public ml::Classifier {
 public:
  TimedClassifier(ml::Classifier& inner, Tracer& tracer) : inner_{inner}, tracer_{tracer} {}

  std::string name() const override { return inner_.name(); }
  void fit(const ml::DesignMatrix& x, const std::vector<int>& y) override { inner_.fit(x, y); }
  int predict(std::span<const double> row) const override { return inner_.predict(row); }
  void score_batch(const ml::DesignMatrix& x, ml::Verdicts& out) const override;
  bool incremental_update(const ml::DesignMatrix& x, const std::vector<int>& y,
                          util::Rng& rng) override {
    return inner_.incremental_update(x, y, rng);
  }
  void adopt_deployment(const ml::Classifier& reference) override {
    inner_.adopt_deployment(reference);
  }
  const ml::StandardScaler* serving_scaler() const override { return inner_.serving_scaler(); }
  bool trained() const override { return inner_.trained(); }
  void save(util::ByteWriter& w) const override { inner_.save(w); }
  void load(util::ByteReader& r) override { inner_.load(r); }
  std::uint64_t parameter_bytes() const override { return inner_.parameter_bytes(); }
  std::uint64_t inference_scratch_bytes() const override {
    return inner_.inference_scratch_bytes();
  }

  std::uint64_t rows_scored() const { return rows_; }
  double score_seconds() const { return static_cast<double>(score_ns_) * 1e-9; }

 private:
  ml::Classifier& inner_;
  Tracer& tracer_;
  mutable std::uint64_t rows_ = 0;
  mutable std::int64_t score_ns_ = 0;
};

// --- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  // measurements behind the value
};

/// What one workload run hands to run.py: the metrics of its
/// mode, the semantic outputs the script checks against references, and
/// the in-process checks (determinism, bare == wrapped) that failed.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> outputs;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;  // batch calls issued into the library
  std::size_t shards = 1;

  void metric(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void output(std::string name, double value) { outputs.emplace_back(std::move(name), value); }
  /// Records a failed in-process check unless `ok`.
  void expect(bool ok, std::string what) {
    if (!ok) check_failures.push_back(std::move(what));
  }

  std::string to_json(const Options& opt) const;
};

/// Per-sample values behind the end-to-end metrics; report_to() emits
/// their medians with the sample counts.
struct EndToEnd {
  std::vector<double> setup_s, pkts_per_s, close_ms;
  double peak_rss_mb = 0.0;

  void report_to(Report& report) const;
};

/// The detector a scale workload serves, trained during its set-up.
struct ServedDetector {
  std::unique_ptr<ml::Classifier> model;
  double generate_s = 0.0;  // core::run_generation of the capture
  double train_s = 0.0;     // extract_features + fit
};

/// Trains `model` on an 8-device, 20 s training capture of a fixed seed.
ServedDetector train_served(std::unique_ptr<ml::Classifier> model, Tracer& tracer);

/// Truth-malicious and predicted-malicious rows of an IDS summary.
inline std::uint64_t truth_of(const ids::IdsSummary& s) {
  return s.confusion.tp() + s.confusion.fn();
}
inline std::uint64_t predicted_of(const ids::IdsSummary& s) {
  return s.confusion.tp() + s.confusion.fp();
}

/// Process peak resident set, MB.
double peak_rss_mb();
/// min(4, hardware threads): the shard count of the fleet workload.
std::size_t default_shards();

// Workload entry points (one process runs one of them).
void run_paper(const Options& opt, Tracer& tracer, Report& report);
void run_testbed_1k(const Options& opt, Tracer& tracer, Report& report);
void run_fleet_100k(const Options& opt, Tracer& tracer, Report& report);
/// Short bare-vs-wrapped equality cases, one per IDS pipeline.
void selftest_testbed(const Options& opt, Tracer& tracer, Report& report);
void selftest_fleet(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench

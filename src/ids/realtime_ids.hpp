// The Real-Time IDS Unit (Fig. 2): monitor → preprocess → detect.
//
// Runs as an app inside the IDS container. A PacketTap on the victim
// feeds it columnar record batches, which fold into a streaming window
// accumulator as they flush; a periodic simulator timer closes each time
// window (1 s by default, user-configurable per §III-B). At window close
// the IDS finalizes the statistical features, stamps them onto each
// packet's basic features, runs the loaded model over every row, and
// records a per-window report with the window's accuracy — the quantity
// Table I averages and §IV-D's per-second analysis plots.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "capture/packet_record.hpp"
#include "capture/record_batch.hpp"
#include "capture/tap.hpp"
#include "features/window_accumulator.hpp"
#include "features/window_stats.hpp"
#include "ids/infer_engine.hpp"
#include "ids/resource_meter.hpp"
#include "ml/classifier.hpp"
#include "ml/lifecycle/manager.hpp"
#include "ml/metrics.hpp"

namespace ddoshield::obs {
class Counter;
class Gauge;
class Histogram;
class FlightRecorder;
class LogLinearHistogram;
}

namespace ddoshield::ids {

/// Per-source slice of one window's verdicts (sorted by src_addr). The
/// mitigation controller turns these into enforcement decisions.
struct SourceVerdict {
  std::uint32_t src_addr = 0;
  std::uint32_t packets = 0;  // rows from this source in the window
  std::uint32_t flagged = 0;  // rows the model called malicious
};

/// Groups one window's per-row verdicts by row source, ascending by
/// src_addr, counting each source's rows and flagged (non-zero) verdicts.
/// A pure function of the rows, independent of arrival interleavings; the
/// one group-by both IDS pipelines publish to their verdict policies.
std::vector<SourceVerdict> group_verdicts_by_source(std::span<const std::uint32_t> row_sources,
                                                    std::span<const int> verdicts);

/// Merges slices that are each ascending by src_addr (as
/// group_verdicts_by_source returns them) into one ascending slice,
/// summing the counts of a source several slices share: the group-by of
/// the slices' rows taken together.
std::vector<SourceVerdict> merge_source_verdicts(
    std::span<const std::span<const SourceVerdict>> slices);

/// What the verdict bus publishes for every scored window. Carries only
/// deterministic fields (no wall-clock measurements) so subscribers can
/// write byte-identical action logs across same-seed runs.
struct WindowVerdictEvent {
  std::uint64_t window_index = 0;
  util::SimTime window_start;
  std::uint64_t packets = 0;
  std::uint64_t predicted_malicious = 0;
  /// Version of the model that scored this window (1 = initial model;
  /// bumps on every lifecycle hot-swap). Deterministic, so subscribers
  /// may act on version changes in their action logs.
  std::uint64_t model_version = 1;
  std::vector<SourceVerdict> sources;
};

/// One closed detection window.
struct WindowReport {
  std::uint64_t window_index = 0;
  util::SimTime window_start;
  std::uint64_t packets = 0;
  std::uint64_t truth_malicious = 0;
  std::uint64_t predicted_malicious = 0;
  double accuracy = 0.0;
  bool single_class = false;  // only one truth class present (§IV-D caveat)
  std::uint64_t cpu_feature_ns = 0;   // measured statistical-feature cost
  std::uint64_t cpu_inference_ns = 0; // measured model cost
  std::uint64_t model_version = 1;    // model that scored this window
};

struct IdsSummary {
  double average_accuracy = 0.0;   // mean of per-window accuracies (Table I)
  double min_accuracy = 1.0;       // the boundary-dip metric (§IV-D)
  double overall_accuracy = 0.0;   // packet-weighted, for reference
  std::uint64_t windows = 0;
  std::uint64_t packets = 0;
  double cpu_percent = 0.0;        // Table II CPU (%)
  double memory_kb = 0.0;          // Table II Memory (Kb)
  ml::ConfusionMatrix confusion;   // accumulated over all windows
};

struct IdsConfig {
  util::SimTime window = util::SimTime::seconds(1);
  ResourceMeterConfig meter;
  /// Scores each closed window on the dedicated InferenceEngine thread
  /// instead of inline. The verdict sequence is identical either way (see
  /// DESIGN.md §10); reports for in-flight windows materialise when their
  /// results drain, at the latest at flush().
  bool offload_inference = false;
  /// Windows in flight before submit() back-pressures (offload mode).
  std::size_t infer_ring_capacity = 8;
  /// Model lifecycle (drift detection, background retraining, hot-swap;
  /// DESIGN.md §14). Disabled by default: no manager, no worker thread.
  ml::lifecycle::LifecycleConfig lifecycle;
};

class RealTimeIds : public apps::App, public capture::BatchSink {
 public:
  /// The model must already be trained (loaded from its model file).
  RealTimeIds(container::Container& owner, util::Rng rng, const ml::Classifier& model,
              IdsConfig config = {});

  /// Connects the IDS to a capture tap (typically on the TServer): registers
  /// a batch sink and remembers the tap so window close can pull its
  /// partial batch. Attach before the traffic of interest (tap contract).
  void attach_tap(capture::PacketTap& tap);

  /// BatchSink: a columnar batch flushed from an attached tap.
  void on_batch(const capture::RecordBatch& batch) override;

  const std::vector<WindowReport>& reports() const { return reports_; }
  IdsSummary summarize() const;

  /// Packets buffered in the currently open window (the obs sampler's
  /// "ids.window_backlog" probe).
  std::size_t window_backlog() const { return wbuf_.size(); }

  /// The offload engine, or null in inline mode (tests reconcile its
  /// backpressure stats against the flight recorder's wait series).
  const InferenceEngine* engine() const { return engine_.get(); }

  /// The lifecycle manager, or null when the lifecycle is disabled.
  const ml::lifecycle::LifecycleManager* lifecycle() const { return lifecycle_.get(); }

  /// Version of the currently-served model (1 until the first hot-swap).
  std::uint64_t model_version() const { return lifecycle_ ? lifecycle_->version() : 1; }

  util::SimTime window_period() const { return config_.window; }

  /// Subscribes the verdict bus: fires once per scored window, after the
  /// report commits. In inline mode that is at the window-close tick; in
  /// offload mode whenever the result drains (nondeterministic sim time —
  /// subscribers must only buffer, and order by window_index).
  void set_verdict_sink(std::function<void(const WindowVerdictEvent&)> sink) {
    verdict_sink_ = std::move(sink);
  }

  /// Blocks (wall-clock) until every offload window with index <= through
  /// has drained and published its verdicts; no-op in inline mode. Called
  /// by the mitigation controller at its tick so the set of buffered
  /// verdicts at a given sim time is deterministic either way.
  void finalize_windows_through(std::uint64_t through);

  /// Closes the current partial window (end of run).
  void flush();

 protected:
  void on_start() override;
  void on_stop() override;

 private:
  /// A uid-sampled packet awaiting its window's verdict; the flight
  /// recorder's end-to-end detection lag is measured over these.
  struct WindowSample {
    std::uint64_t uid = 0;
    std::int64_t tap_sim_ns = 0;  // sim clock when the tap handed it over
    bool malicious = false;       // ground truth, selects the lag series
  };

  /// One window whose features are computed but whose verdicts are still
  /// on the scoring thread (offload mode).
  struct PendingWindow {
    WindowReport report;      // everything but the verdict-derived fields
    std::vector<int> truths;  // ground-truth label per row
    std::vector<std::uint32_t> row_sources;  // src addr per row (verdict bus only)
    std::vector<WindowSample> samples;
    std::int64_t close_sim_ns = 0;   // sim clock at window close
    std::int64_t close_wall_ns = 0;  // wall clock at window close
    std::int64_t submit_wall_ns = 0; // wall clock at inference submit
  };

  void close_window();
  void schedule_tick();
  /// Fills in the verdict-derived report fields and commits the report.
  void finalize_window(PendingWindow&& pending, const ml::Verdicts& verdicts,
                       std::uint64_t inference_ns, std::uint64_t queue_wait_ns);
  /// Collects completed offload results in submission order; with block
  /// set, waits until none are outstanding.
  void drain_completed(bool block);

  /// The currently-served model. Starts as the constructor's reference;
  /// after a hot-swap it points at owned_model_ (the lifecycle clone),
  /// which keeps the served model alive while older versions stay pinned
  /// by any in-flight engine jobs that still hold their shared_ptr.
  const ml::Classifier* model_;
  std::shared_ptr<const ml::Classifier> owned_model_;
  IdsConfig config_;
  ResourceMeter meter_;
  std::unique_ptr<InferenceEngine> engine_;
  std::unique_ptr<ml::lifecycle::LifecycleManager> lifecycle_;
  std::deque<PendingWindow> pending_;
  // The open window as struct-of-arrays plus the streaming accumulator it
  // folds into as batches flush. `accepting_` gates batch ingestion:
  // on_start flushes attached taps first so records captured before the
  // app started are dropped.
  capture::RecordBatch wbuf_;
  features::WindowAccumulator acc_;
  std::vector<capture::PacketTap*> taps_;
  bool accepting_ = false;
  std::vector<WindowSample> window_samples_;  // sampled uids in the open window
  std::uint64_t buffer_peak_bytes_ = 0;
  std::uint64_t current_window_ = 0;
  std::vector<WindowReport> reports_;
  ml::ConfusionMatrix confusion_;
  std::function<void(const WindowVerdictEvent&)> verdict_sink_;

  // Registry instruments; the latency histograms are per-model
  // ("ids.<model>.feature_ns" / "ids.<model>.inference_ns"), resolved
  // once at construction.
  obs::Histogram* m_feature_ns_;
  obs::Histogram* m_inference_ns_;
  obs::Histogram* m_window_close_ns_;  // "ids.window_close_ns": whole close
  obs::Counter* m_verdict_malicious_;
  obs::Counter* m_verdict_benign_;
  obs::Counter* m_windows_;
  obs::Gauge* m_backlog_;
  obs::Gauge* m_model_version_;

  // Flight-recorder wiring: window lifecycle events plus the latency
  // series split per model and per traffic class.
  obs::FlightRecorder* flight_;
  obs::LogLinearHistogram* lat_detect_benign_;  // flight.<model>.detect_lag_ns.benign
  obs::LogLinearHistogram* lat_detect_attack_;  // flight.<model>.detect_lag_ns.attack
  obs::LogLinearHistogram* lat_infer_batch_;    // flight.ids.infer_batch_ns
  obs::LogLinearHistogram* lat_infer_wait_;     // flight.ids.infer_wait_ns
  obs::LogLinearHistogram* lat_ring_wait_;      // flight.ids.ring_wait_ns
};

}  // namespace ddoshield::ids

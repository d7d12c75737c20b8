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
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "capture/packet_record.hpp"
#include "capture/record_batch.hpp"
#include "capture/tap.hpp"
#include "features/schema.hpp"
#include "features/window_accumulator.hpp"
#include "features/window_stats.hpp"
#include "ids/resource_meter.hpp"
#include "ml/classifier.hpp"
#include "ml/design_matrix.hpp"
#include "ml/lifecycle/manager.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::obs {
class FlightRecorder;
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
  /// Model lifecycle (drift detection, inline retraining, hot-swap;
  /// DESIGN.md §14). Disabled by default: no manager.
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

  /// The lifecycle manager, or null when the lifecycle is disabled.
  const ml::lifecycle::LifecycleManager* lifecycle() const { return lifecycle_.get(); }

  /// Version of the currently-served model (1 until the first hot-swap).
  std::uint64_t model_version() const { return lifecycle_ ? lifecycle_->version() : 1; }

  util::SimTime window_period() const { return config_.window; }

  /// Subscribes the verdict bus: fires once per scored window, at its
  /// window-close tick, after the report commits.
  void set_verdict_sink(std::function<void(const WindowVerdictEvent&)> sink) {
    verdict_sink_ = std::move(sink);
  }

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

  /// Closes the open window in one pass: features, rows, score, report,
  /// verdict bus.
  void close_window();
  void schedule_tick();

  /// The model scoring the open window: the constructor's until the first
  /// hot-swap, then the lifecycle manager's current clone.
  const ml::Classifier& served_model() const {
    return lifecycle_ ? lifecycle_->current_model() : *model_;
  }

  const ml::Classifier* model_;  // the constructor's model (version 1)
  IdsConfig config_;
  ResourceMeter meter_;
  std::unique_ptr<ml::lifecycle::LifecycleManager> lifecycle_;
  // The open window as struct-of-arrays plus the streaming accumulator it
  // folds into as batches flush. `accepting_` gates batch ingestion:
  // on_start flushes attached taps first so records captured before the
  // app started are dropped.
  capture::RecordBatch wbuf_;
  features::WindowAccumulator acc_;
  std::vector<capture::PacketTap*> taps_;
  bool accepting_ = false;
  std::vector<WindowSample> window_samples_;  // sampled uids in the open window
  // Per-close buffers, reused window after window: the identity row order,
  // the rows written in place, their truth labels and their verdicts.
  std::vector<std::uint32_t> order_;
  ml::DesignMatrix x_{features::kFeatureCount};
  std::vector<int> truths_;
  ml::Verdicts verdicts_;
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
};

}  // namespace ddoshield::ids

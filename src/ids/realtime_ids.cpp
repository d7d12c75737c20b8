#include "ids/realtime_ids.hpp"

#include <algorithm>
#include <numeric>

#include "capture/flat_table.hpp"
#include "features/schema.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddoshield::ids {

using util::SimTime;

namespace {

bool src_less(const SourceVerdict& a, const SourceVerdict& b) { return a.src_addr < b.src_addr; }

struct SrcHash {
  std::size_t operator()(std::uint32_t v) const {
    return static_cast<std::size_t>(capture::mix_u64(v));
  }
};

}  // namespace

std::vector<SourceVerdict> group_verdicts_by_source(std::span<const std::uint32_t> row_sources,
                                                    std::span<const int> verdicts) {
  // Hash each row to its source's slot, then sort only the unique sources:
  // O(rows + uniques log uniques), with no node per source.
  const std::size_t rows = std::min(row_sources.size(), verdicts.size());
  capture::FlatTable<std::uint32_t, std::uint32_t, SrcHash> slot_of{
      std::min<std::size_t>(rows, 4096)};
  std::vector<SourceVerdict> sources;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint32_t& slot = slot_of.find_or_insert(row_sources[i]);  // 1-based; 0 = new
    if (slot == 0) {
      sources.push_back({.src_addr = row_sources[i]});
      slot = static_cast<std::uint32_t>(sources.size());
    }
    SourceVerdict& sv = sources[slot - 1];
    ++sv.packets;
    sv.flagged += verdicts[i] != 0 ? 1u : 0u;
  }
  std::sort(sources.begin(), sources.end(), src_less);
  return sources;
}

std::vector<SourceVerdict> merge_source_verdicts(
    std::span<const std::span<const SourceVerdict>> slices) {
  std::vector<SourceVerdict> out;
  std::size_t total = 0;
  for (const auto slice : slices) total += slice.size();
  out.reserve(total);
  for (const auto slice : slices) out.insert(out.end(), slice.begin(), slice.end());
  // Slices over disjoint, ascending address blocks are already in order.
  if (!std::is_sorted(out.begin(), out.end(), src_less))
    std::sort(out.begin(), out.end(), src_less);
  std::size_t kept = 0;
  for (const SourceVerdict& sv : out) {
    if (kept > 0 && out[kept - 1].src_addr == sv.src_addr) {
      out[kept - 1].packets += sv.packets;
      out[kept - 1].flagged += sv.flagged;
    } else {
      out[kept++] = sv;
    }
  }
  out.resize(kept);
  return out;
}

RealTimeIds::RealTimeIds(container::Container& owner, util::Rng rng,
                         const ml::Classifier& model, IdsConfig config)
    : App{owner, "realtime-ids", rng},
      model_{&model},
      config_{config},
      meter_{model.name(), config.meter} {
  if (!model_->trained()) {
    throw std::invalid_argument("RealTimeIds: model must be trained before deployment");
  }
  if (config_.window <= SimTime{}) {
    throw std::invalid_argument("RealTimeIds: window must be positive");
  }
  if (config_.lifecycle.enabled) {
    lifecycle_ = std::make_unique<ml::lifecycle::LifecycleManager>(
        *model_, features::kFeatureCount, config_.lifecycle);
  }
  auto& reg = obs::MetricsRegistry::global();
  m_feature_ns_ = &reg.histogram("ids." + model_->name() + ".feature_ns");
  m_inference_ns_ = &reg.histogram("ids." + model_->name() + ".inference_ns");
  m_window_close_ns_ = &reg.histogram("ids.window_close_ns");
  m_verdict_malicious_ = &reg.counter("ids.verdict.malicious");
  m_verdict_benign_ = &reg.counter("ids.verdict.benign");
  m_windows_ = &reg.counter("ids.windows_closed");
  m_backlog_ = &reg.gauge("ids.window_backlog");
  m_model_version_ = &reg.gauge("ids.model_version");
  m_model_version_->set(1.0);

  flight_ = &obs::FlightRecorder::global();
  lat_detect_benign_ = &reg.latency("flight." + model_->name() + ".detect_lag_ns.benign");
  lat_detect_attack_ = &reg.latency("flight." + model_->name() + ".detect_lag_ns.attack");
  lat_infer_batch_ = &reg.latency("flight.ids.infer_batch_ns");
}

void RealTimeIds::attach_tap(capture::PacketTap& tap) {
  taps_.push_back(&tap);
  tap.add_batch_sink(this);
}

void RealTimeIds::on_start() {
  // Purge any pre-start partial batch before accepting: those records were
  // captured while the app was down.
  for (capture::PacketTap* tap : taps_) tap->flush_batch();
  accepting_ = true;
  current_window_ = static_cast<std::uint64_t>(sim().now().ns() / config_.window.ns());
  schedule_tick();
}

void RealTimeIds::on_stop() {
  flush();
  accepting_ = false;
}

void RealTimeIds::schedule_tick() {
  // Fire exactly at the next window boundary.
  const std::int64_t next_edge =
      (static_cast<std::int64_t>(current_window_) + 1) * config_.window.ns();
  schedule(SimTime::nanos(next_edge) - sim().now(), [this] {
    close_window();
    ++current_window_;
    schedule_tick();
  });
}

void RealTimeIds::on_batch(const capture::RecordBatch& batch) {
  if (!accepting_) return;
  const auto& uid = batch.uid();
  const auto& ts = batch.timestamp_ns();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    wbuf_.append_row(batch, i);
    acc_.add(batch.record_at(i));
    if (flight_->sampled(uid[i])) {
      // The sim clock at capture, reconstructed from the stamped timestamp
      // (the tap's clock offset must not leak into the detection-lag
      // series).
      window_samples_.push_back(
          WindowSample{uid[i], ts[i] - batch.clock_offset_ns(), batch.is_malicious(i)});
    }
  }
  buffer_peak_bytes_ = std::max<std::uint64_t>(buffer_peak_bytes_, wbuf_.byte_capacity());
  m_backlog_->set(static_cast<double>(wbuf_.size()));
}

void RealTimeIds::close_window() {
  // Wall-clock cost of the whole close (features + rows + score + report):
  // the boundary-spike quantity EXPERIMENTS.md tables as p99 close latency.
  std::uint64_t close_ns = 0;
  obs::ScopedTimer close_timer{*m_window_close_ns_, close_ns};

  // Apply a due hot-swap before anything else, including the empty-window
  // early return, so the swap lands at the window boundary the sim-domain
  // swap schedule names.
  if (lifecycle_) {
    lifecycle_->maybe_swap(current_window_);
    m_model_version_->set(static_cast<double>(lifecycle_->version()));
  }
  const ml::Classifier& model = served_model();

  // Pull the partial batch sitting in each tap so the window's final
  // records don't straddle the boundary. Records captured at exactly the
  // boundary instant but before this tick flushed earlier into this
  // window: arrival-order bucketing (windows are closed by tick order, not
  // by timestamp).
  for (capture::PacketTap* tap : taps_) tap->flush_batch();

  const std::size_t rows = wbuf_.size();
  if (rows == 0) return;

  WindowReport report;
  report.window_index = current_window_;
  report.model_version = model_version();
  report.window_start =
      SimTime::nanos(static_cast<std::int64_t>(current_window_) * config_.window.ns());
  report.packets = rows;

  // --- preprocessing: statistical features over the window (measured) -----
  {
    obs::ScopedTimer timer{*m_feature_ns_, report.cpu_feature_ns};
    // O(uniques) finalize of the incrementally-folded tallies, then
    // column-wise rows written in place, in arrival order — no per-packet
    // recompute at the edge.
    const features::WindowStats stats = acc_.finalize(config_.window);
    order_.resize(rows);
    std::iota(order_.begin(), order_.end(), 0u);
    x_.resize_rows(rows);
    features::make_feature_rows(wbuf_, order_, stats, x_.mutable_data());
  }
  truths_.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) truths_[i] = wbuf_.is_malicious(i) ? 1 : 0;

  // Feed the lifecycle after the swap check: this window may *trigger* a
  // retrain, but the earliest it can land is apply_latency_windows later.
  if (lifecycle_) {
    lifecycle_->observe_window(current_window_, x_, truths_);
    lifecycle_->publish_metrics();
  }

  const std::int64_t close_sim_ns = sim().now().ns();
  const std::int64_t close_wall_ns = flight_->wall_now_ns();
  if (flight_->enabled()) {
    flight_->record(obs::FlightStage::kWindowClose, report.window_index, close_sim_ns,
                    close_wall_ns, rows);
    flight_->record(obs::FlightStage::kInferSubmit, report.window_index, close_sim_ns,
                    flight_->wall_now_ns(), rows);
  }

  // --- detection: batched inference over the window's matrix --------------
  {
    obs::ScopedTimer timer{*m_inference_ns_, report.cpu_inference_ns};
    model.score_batch(x_, verdicts_);
  }

  ml::ConfusionMatrix window_cm;
  for (std::size_t i = 0; i < rows; ++i) {
    window_cm.add(truths_[i], verdicts_[i]);
    confusion_.add(truths_[i], verdicts_[i]);
  }
  report.truth_malicious = window_cm.tp() + window_cm.fn();
  report.predicted_malicious = window_cm.tp() + window_cm.fp();
  report.accuracy = window_cm.accuracy();
  report.single_class =
      report.truth_malicious == 0 || report.truth_malicious == report.packets;
  reports_.push_back(report);

  m_windows_->inc();
  m_verdict_malicious_->inc(report.predicted_malicious);
  m_verdict_benign_->inc(report.packets - report.predicted_malicious);
  meter_.on_window_closed(report.window_index, report.cpu_feature_ns, report.cpu_inference_ns,
                          static_cast<std::uint64_t>(config_.window.ns()));

  if (flight_->enabled()) {
    const std::int64_t verdict_wall = flight_->wall_now_ns();
    flight_->record(obs::FlightStage::kInferComplete, report.window_index, close_sim_ns,
                    verdict_wall, rows);
    flight_->record(obs::FlightStage::kVerdict, report.window_index, close_sim_ns,
                    verdict_wall, report.predicted_malicious);

    // Stage attribution. The batch kernel's own time comes from the wall
    // clock; the end-to-end detection lag of each sampled packet composes
    // a sim-domain part (tap to window close — queueing plus buffering,
    // deterministic) with a wall-domain part (window close to verdict —
    // the real compute cost the simulation never models).
    lat_infer_batch_->observe(report.cpu_inference_ns);
    const std::int64_t wall_part =
        verdict_wall > close_wall_ns ? verdict_wall - close_wall_ns : 0;
    for (const WindowSample& s : window_samples_) {
      const std::int64_t sim_part = close_sim_ns > s.tap_sim_ns ? close_sim_ns - s.tap_sim_ns : 0;
      const std::uint64_t lag = static_cast<std::uint64_t>(sim_part + wall_part);
      (s.malicious ? lat_detect_attack_ : lat_detect_benign_)->observe(lag);
    }
  }

  auto& trace = obs::TraceRecorder::global();
  if (trace.enabled()) {
    trace.span("ids.window." + model.name(), "ids", report.window_start, config_.window);
  }

  if (verdict_sink_) {
    WindowVerdictEvent event;
    event.window_index = report.window_index;
    event.window_start = report.window_start;
    event.packets = report.packets;
    event.predicted_malicious = report.predicted_malicious;
    event.model_version = report.model_version;
    event.sources = group_verdicts_by_source(wbuf_.src_addr(), verdicts_);
    verdict_sink_(event);
  }

  wbuf_.clear();
  acc_.reset();
  window_samples_.clear();
  m_backlog_->set(0.0);
}

void RealTimeIds::flush() {
  // Pull partial batches first so end-of-run records reach the final
  // (partial) window; close_window's own flush is then a no-op.
  for (capture::PacketTap* tap : taps_) tap->flush_batch();
  if (!wbuf_.empty()) close_window();
}

IdsSummary RealTimeIds::summarize() const {
  IdsSummary s;
  s.windows = reports_.size();
  s.confusion = confusion_;
  if (reports_.empty()) return s;

  double cpu_fraction_sum = 0.0;
  double accuracy_sum = 0.0;
  for (const auto& r : reports_) {
    accuracy_sum += r.accuracy;
    s.min_accuracy = std::min(s.min_accuracy, r.accuracy);
    s.packets += r.packets;
    cpu_fraction_sum += meter_.window_cpu_percent(
        r.cpu_feature_ns, r.cpu_inference_ns, static_cast<std::uint64_t>(config_.window.ns()));
  }
  s.average_accuracy = accuracy_sum / static_cast<double>(reports_.size());
  s.overall_accuracy = confusion_.accuracy();
  s.cpu_percent = cpu_fraction_sum / static_cast<double>(reports_.size());

  const double scratch =
      static_cast<double>(served_model().inference_scratch_bytes()) *
      static_cast<double>(config_.meter.inference_chunk);
  const double row_buffer =
      static_cast<double>(config_.meter.inference_chunk) *
      static_cast<double>(sizeof(features::FeatureRow));
  s.memory_kb = (static_cast<double>(buffer_peak_bytes_) + scratch + row_buffer) / 1024.0;
  return s;
}

}  // namespace ddoshield::ids

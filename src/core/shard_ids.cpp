#include "core/shard_ids.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "features/schema.hpp"
#include "features/window_stats.hpp"
#include "ml/design_matrix.hpp"
#include "obs/domain.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::core {

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
}

}  // namespace

// Per-tap capture and close state. Everything here is touched by the
// owning shard's thread (capture during window execution, its share of
// each close inside the sync hook via ShardedSim::for_each_shard) or by
// shard 0's thread in the close's serial steps — never concurrently: every
// hand-over crosses a fleet barrier, which also publishes the writes.
struct ShardIdsPipeline::TapState final : capture::BatchSink {
  TapState(const capture::TapConfig& tc, std::size_t owner) : tap{tc}, shard{owner} {
    acc.set_canonical_ties(true);
  }

  void on_batch(const capture::RecordBatch& batch) override {
    // Columnar fold-at-flush: the window's statistics accumulate on the
    // shard thread, amortised across the window, leaving the boundary an
    // O(uniques) finalize.
    for (std::size_t i = 0; i < batch.size(); ++i) wbuf.append_row(batch, i);
    acc.add_batch(batch);
  }

  capture::PacketTap tap;
  const std::size_t shard;          // the shard that captures on this tap
  capture::RecordBatch wbuf;        // open window, struct-of-arrays
  features::WindowAccumulator acc;  // streaming fold (canonical ties)

  // The closing window's share of this tap, rebuilt at every close; the
  // buffers keep their allocations from window to window.
  ml::DesignMatrix x{features::kFeatureCount};  // rows, canonical order
  ml::Verdicts verdicts;
  std::vector<std::uint32_t> row_sources;
  std::vector<std::int64_t> lags;  // boundary - capture, truth-malicious rows
  std::vector<ids::SourceVerdict> sources;  // ascending by src_addr
  std::uint64_t row_digest = kFnvBasis;     // FNV-1a over this tap's rows
  std::uint64_t truth = 0;
  std::uint64_t predicted = 0;
};

ShardIdsPipeline::ShardIdsPipeline(ShardedSim& sim, const ml::Classifier& model,
                                   ShardIdsConfig config)
    : sim_{sim},
      model_{model},
      config_{config},
      policy_{config.mitigation_config, config.protected_addr} {
  if (config_.window.ns() <= 0)
    throw std::invalid_argument("ShardIdsPipeline: window must be positive");
}

ShardIdsPipeline::~ShardIdsPipeline() = default;

capture::PacketTap& ShardIdsPipeline::add_tap(std::size_t shard) {
  if (armed_) throw std::logic_error("ShardIdsPipeline: add_tap after arm()");
  capture::TapConfig tc;
  // Device egress only: received-side capture would make the stream depend
  // on queueing (echo timing), breaking shard-layout invariance.
  tc.capture_received = false;
  tc.capture_sent = true;
  tc.batch_capacity = config_.tap_batch_capacity;
  std::unique_ptr<TapState> state;
  {
    // The tap's counters must live in the shard that will capture on it.
    obs::ScopedObsDomain scope{sim_.domain(shard)};
    state = std::make_unique<TapState>(tc, shard);
  }
  state->tap.add_batch_sink(state.get());
  taps_.push_back(std::move(state));
  return taps_.back()->tap;
}

void ShardIdsPipeline::add_filter(mitigate::EdgeFilter* filter, net::Ipv4Address prefix,
                                  int prefix_len) {
  if (armed_) throw std::logic_error("ShardIdsPipeline: add_filter after arm()");
  filters_.push_back(EdgeBlock{prefix, prefix_len, filter});
}

mitigate::EdgeFilter& ShardIdsPipeline::filter_for(std::uint32_t src) const {
  for (const EdgeBlock& b : filters_) {
    if (b.prefix.same_subnet(net::Ipv4Address{src}, b.prefix_len)) return *b.filter;
  }
  throw std::logic_error("ShardIdsPipeline: no edge filter's block holds source " +
                         net::Ipv4Address{src}.to_string());
}

void ShardIdsPipeline::arm() {
  if (armed_) return;
  armed_ = true;
  {
    obs::ScopedObsDomain scope{sim_.domain(0)};
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    m_window_close_ns_ = &reg.histogram("ids.window_close_ns");
    m_windows_closed_ = &reg.counter("ids.windows_closed");
    m_rows_ = &reg.counter("ids.rows");
    m_window_rows_ = &reg.gauge("ids.window_rows");
    m_detect_lag_p99_ = &reg.gauge("ids.detect_lag_p99_ns");
    m_detect_lag_ns_ = &reg.histogram("ids.detect_lag_ns");
  }
  mitigate::VerdictPolicy::Hooks hooks;
  hooks.install_acl = [this](std::uint32_t src) { filter_for(src).install_acl(src); };
  hooks.remove_acl = [this](std::uint32_t src) { filter_for(src).remove_acl(src); };
  hooks.install_limit = [this](std::uint32_t src, double pps, double burst) {
    filter_for(src).install_limit(src, pps, burst);
  };
  hooks.remove_limit = [this](std::uint32_t src) { filter_for(src).remove_limit(src); };
  // No quarantine hook: the scale workload's devices are plain nodes, not
  // crashable apps; the ladder tops out at the ACL.
  policy_.set_hooks(std::move(hooks));
  // add (not set): the telemetry collector registers its own hook after
  // us, so at shared boundaries the window closes before it is sampled.
  sim_.add_sync_hook(config_.window, [this](util::SimTime t) { on_window(t); });
}

void ShardIdsPipeline::on_window(util::SimTime now) {
  // Boundary T closes the window (T - w, T], index T/w - 1 (0-based).
  close_window(now, static_cast<std::uint64_t>(now.ns() / config_.window.ns()) - 1);
}

void ShardIdsPipeline::flush(util::SimTime now) {
  if (!armed_) return;
  for (auto& t : taps_) t->tap.flush_batch();
  std::uint64_t pending = 0;
  for (auto& t : taps_) pending += t->wbuf.size();
  if (pending == 0) return;  // aligned end: the hook already closed it
  close_window(now, static_cast<std::uint64_t>(now.ns() / config_.window.ns()));
}

void ShardIdsPipeline::close_window(util::SimTime now, std::uint64_t index) {
  const auto wall0 = std::chrono::steady_clock::now();
  // The per-tap phases run on every shard at once, each shard over the
  // taps it owns; the steps between them run on this (shard 0's) thread.
  const auto on_own_taps = [this](const auto& fn) {
    sim_.for_each_shard([&](std::size_t s) {
      for (auto& t : taps_)
        if (t->shard == s) fn(*t);
    });
  };

  // 1. Per tap: pull the boundary's partial batch so every captured record
  //    of the closing window is in wbuf/acc (arrival-order bucketing, same
  //    as the flat IDS's flush-at-tick), and fold the pending tie run.
  on_own_taps([](TapState& t) {
    t.tap.flush_batch();
    t.acc.flush_ties();
  });

  // ACL expiry runs every boundary, events only for non-empty windows —
  // mirrors the MitigationController tick against the RealTimeIds bus.
  if (config_.mitigation) policy_.expire_acls(now.ns(), index);

  std::uint64_t rows = 0;
  for (auto& t : taps_) rows += t->wbuf.size();
  if (rows == 0) return;

  // 2. Merge the per-tap partials in tap creation order (the pinned merge
  //    order Chan's Welford combination needs) and finalize once.
  features::WindowAccumulator merged{rows};
  for (auto& t : taps_) merged.merge_from(t->acc);
  const features::WindowStats stats = merged.finalize(config_.window);

  // 3. Per tap: rows in canonical batch order (capture order with
  //    same-nanosecond runs content-sorted, the one layout-dependent
  //    degree of freedom, erased), the tap's row digest, truths, row
  //    sources and detection lags.
  on_own_taps([&stats, now](TapState& t) {
    const auto order = features::canonical_batch_order(t.wbuf, 0, t.wbuf.size());
    t.x.resize_rows(order.size());
    features::make_feature_rows(t.wbuf, order, stats, t.x.mutable_data());
    t.row_digest = kFnvBasis;
    for (const double v : t.x.data()) fnv_mix(t.row_digest, std::bit_cast<std::uint64_t>(v));
    t.truth = 0;
    t.row_sources.clear();
    t.lags.clear();
    for (const std::uint32_t i : order) {
      t.row_sources.push_back(t.wbuf.src_addr()[i]);
      if (t.wbuf.is_malicious(i)) {
        ++t.truth;
        t.lags.push_back(now.ns() - t.wbuf.timestamp_ns()[i]);
      }
    }
  });

  // 4. Score on this thread, one tap at a time: a Classifier need not be
  //    safe to call from several threads, and each row's verdict does not
  //    depend on the rows scored with it.
  for (auto& t : taps_) model_.score_batch(t->x, t->verdicts);

  // 5. Per tap: the predicted count, the per-source slice, and the reset
  //    for the next window (reset wipes the canonical-ties flag).
  const bool mitigation = config_.mitigation;
  on_own_taps([mitigation](TapState& t) {
    t.predicted = static_cast<std::uint64_t>(std::count(t.verdicts.begin(), t.verdicts.end(), 1));
    if (mitigation) t.sources = ids::group_verdicts_by_source(t.row_sources, t.verdicts);
    t.wbuf.clear();
    t.acc.reset();
    t.acc.set_canonical_ties(true);
  });

  // 6. Fold the taps in tap order: the row digest over the per-tap
  //    digests, the verdict digest over every verdict (tap order, then
  //    row order), the counts, the per-source slices and the lags.
  std::uint64_t truth = 0;
  std::uint64_t predicted = 0;
  std::vector<std::span<const ids::SourceVerdict>> slices;
  slices.reserve(taps_.size());
  std::vector<std::int64_t> lags;
  for (auto& t : taps_) {
    fnv_mix(row_digest_, t->row_digest);
    for (const int v : t->verdicts) fnv_mix(verdict_digest_, static_cast<std::uint64_t>(v));
    truth += t->truth;
    predicted += t->predicted;
    slices.push_back(t->sources);
    lags.insert(lags.end(), t->lags.begin(), t->lags.end());
  }

  // Mitigation: per-source verdict slices in ascending src order, then the
  // shared ladder with now = the boundary instant.
  if (config_.mitigation) {
    ids::WindowVerdictEvent event;
    event.window_index = index;
    event.window_start = util::SimTime::nanos(static_cast<std::int64_t>(index) *
                                              config_.window.ns());
    event.packets = rows;
    event.predicted_malicious = predicted;
    event.sources = ids::merge_source_verdicts(slices);
    policy_.process_event(event, now.ns());
  }

  windows_.push_back({index, rows, truth, predicted});
  rows_total_ += rows;
  truth_total_ += truth;
  predicted_total_ += predicted;

  // Detection lag: boundary instant minus capture timestamp over the
  // window's truth-malicious rows — how long an attack packet sat in the
  // open window before the verdict that could act on it. Pure simulated
  // time, so the telemetry series built on these instruments is a
  // function of the seed alone (byte-identical across shard layouts).
  // p99 is the deterministic sorted-index form, never interpolated.
  std::int64_t lag_p99 = 0;
  if (!lags.empty()) {
    for (const std::int64_t lag : lags)
      m_detect_lag_ns_->observe(static_cast<std::uint64_t>(lag < 0 ? 0 : lag));
    std::size_t idx = (lags.size() * 99) / 100;
    if (idx >= lags.size()) idx = lags.size() - 1;
    std::nth_element(lags.begin(), lags.begin() + static_cast<std::ptrdiff_t>(idx), lags.end());
    lag_p99 = lags[idx];
  }
  m_detect_lag_p99_->set(static_cast<double>(lag_p99));
  m_window_rows_->set(static_cast<double>(rows));
  m_windows_closed_->inc();
  m_rows_->inc(rows);

  const auto wall1 = std::chrono::steady_clock::now();
  const auto close_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0).count();
  close_wall_ns_.push_back(close_ns);
  m_window_close_ns_->observe(static_cast<std::uint64_t>(close_ns));
}

int FloodPortDetector::predict(std::span<const double> row) const {
  const double flood = static_cast<double>(flood_port_) / 65535.0;
  return row[features::kDstPort] == flood ? 1 : 0;
}

}  // namespace ddoshield::core

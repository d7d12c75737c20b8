// Sharded detection pipeline: the IDS unit scaled onto ShardedSim.
//
// One flat RealTimeIds serializes every captured packet through a single
// tap and recomputes a window's features on one thread — the wall the
// scale benches hit long before 100k devices. ShardIdsPipeline splits the
// capture: one PacketTap per *cluster* (attached to the cluster's device
// nodes, device egress only), each feeding a per-tap columnar RecordBatch
// and a streaming WindowAccumulator that folds on the owning shard's
// thread as batches flush. At every window boundary the fleet pauses at
// the ShardedSim sync hook and closes the window: every shard flushes,
// builds the feature rows of, and groups the verdicts of the taps it owns
// (ShardedSim::for_each_shard), while shard 0 alone merges the per-tap
// partials, scores each tap's rows, and walks the per-source verdicts
// through the shared mitigate::VerdictPolicy, enforcing each source's rules
// on the EdgeFilter of the cluster edge whose address block holds it.
//
// Determinism contract (DESIGN.md §15) — why the merged windows are
// byte-identical across shard counts:
//
//  * capture points are shard-layout-invariant: taps see device *egress*
//    only, and every send in the shard workload is open-loop, so each
//    tap's captured (timestamp, content) multiset is a pure function of
//    the seed — queueing never feeds back into what is captured;
//  * tap granularity is the cluster, not the shard: the tap set and each
//    tap's stream are identical for every shard count;
//  * same-nanosecond capture order IS layout-dependent (calendar seq
//    interleaving), so per-tap accumulators run in canonical-ties mode
//    and rows are emitted in canonical_batch_order — both erase exactly
//    that divergence;
//  * partial accumulators merge in tap creation order (Chan's parallel
//    Welford combination is order-sensitive; the order is pinned);
//  * the sync hook pauses every shard at exactly the boundary, so window
//    contents are timestamp-bucketed by construction, and mitigation
//    decisions execute at the boundary instant with byte-identical
//    ActionLog lines.
//
// features_accumulator_test checks the streaming fold and column-wise row
// building against the per-record compute_window_stats + make_feature_row.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "capture/record_batch.hpp"
#include "capture/tap.hpp"
#include "core/shard_sim.hpp"
#include "features/window_accumulator.hpp"
#include "mitigate/mitigation.hpp"
#include "mitigate/policy.hpp"
#include "ml/classifier.hpp"
#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::core {

struct ShardIdsConfig {
  util::SimTime window = util::SimTime::millis(100);
  /// Captured packets per columnar batch before the fold runs.
  std::size_t tap_batch_capacity = 256;
  /// Walk verdicts through the VerdictPolicy and enforce on the
  /// registered edge filters. Off = detection-only (no ActionLog).
  bool mitigation = true;
  mitigate::MitigationConfig mitigation_config{
      // SYN cookies are a TCP-host mechanism; this UDP fleet has none.
      .enable_syn_cookies = false};
  /// The protected service's address (never blocklisted). With egress-only
  /// taps it never appears as a row source, but the contract stays explicit.
  std::uint32_t protected_addr = 0;
};

/// One closed (non-empty) merged window — the deterministic surface.
struct ShardIdsWindow {
  std::uint64_t index = 0;
  std::uint64_t rows = 0;
  std::uint64_t truth_malicious = 0;
  std::uint64_t predicted_malicious = 0;
};

class ShardIdsPipeline {
 public:
  /// The model must be trained and outlive the pipeline.
  ShardIdsPipeline(ShardedSim& sim, const ml::Classifier& model, ShardIdsConfig config = {});
  ~ShardIdsPipeline();

  ShardIdsPipeline(const ShardIdsPipeline&) = delete;
  ShardIdsPipeline& operator=(const ShardIdsPipeline&) = delete;

  /// Creates a capture tap whose instruments resolve into `shard`'s obs
  /// domain. Creation order is the accumulator merge order — call in a
  /// fixed, shard-count-independent order (cluster order), then attach
  /// the tap to the cluster's device nodes before traffic starts.
  capture::PacketTap& add_tap(std::size_t shard);

  /// Registers the enforcement target for the sources in the address
  /// block prefix/prefix_len (a cluster edge's filter and the cluster's
  /// block). A source traverses only its own edge, so policy hooks
  /// install/remove its rules only on the filter whose block holds it; a
  /// source no block holds is a wiring bug (std::logic_error).
  void add_filter(mitigate::EdgeFilter* filter, net::Ipv4Address prefix, int prefix_len);

  /// Installs the window sync hook on the ShardedSim. Call after every
  /// add_tap/add_filter and before run_until.
  void arm();

  /// Closes a final partial window (non-aligned end time); no-op when
  /// nothing is buffered. Call after the last run_until.
  void flush(util::SimTime now);

  // --- deterministic equivalence surface ----------------------------------
  const std::vector<ShardIdsWindow>& windows() const { return windows_; }
  std::uint64_t rows_total() const { return rows_total_; }
  std::uint64_t truth_total() const { return truth_total_; }
  std::uint64_t predicted_total() const { return predicted_total_; }
  /// FNV-1a fold, window by window in tap order, of each tap's FNV-1a
  /// over its rows' feature bit patterns (in the tap's row order).
  std::uint64_t row_digest() const { return row_digest_; }
  /// FNV-1a over every verdict, in emit order.
  std::uint64_t verdict_digest() const { return verdict_digest_; }
  const mitigate::ActionLog& action_log() const { return policy_.action_log(); }
  const mitigate::VerdictPolicy& policy() const { return policy_; }

  // --- perf surface (wall clock; never part of equality) ------------------
  /// Wall nanoseconds per window close (merge + rows + score + policy).
  const std::vector<std::int64_t>& close_wall_ns() const { return close_wall_ns_; }

 private:
  struct TapState;
  struct EdgeBlock {
    net::Ipv4Address prefix;
    int prefix_len = 0;
    mitigate::EdgeFilter* filter = nullptr;
  };

  void on_window(util::SimTime now);
  void close_window(util::SimTime now, std::uint64_t index);
  mitigate::EdgeFilter& filter_for(std::uint32_t src) const;

  ShardedSim& sim_;
  const ml::Classifier& model_;
  ShardIdsConfig config_;
  std::vector<std::unique_ptr<TapState>> taps_;  // merge order
  std::vector<EdgeBlock> filters_;
  mitigate::VerdictPolicy policy_;
  bool armed_ = false;

  std::vector<ShardIdsWindow> windows_;
  std::uint64_t rows_total_ = 0;
  std::uint64_t truth_total_ = 0;
  std::uint64_t predicted_total_ = 0;
  std::uint64_t row_digest_ = 14695981039346656037ULL;   // FNV-1a basis
  std::uint64_t verdict_digest_ = 14695981039346656037ULL;
  std::vector<std::int64_t> close_wall_ns_;
  obs::Histogram* m_window_close_ns_ = nullptr;  // shard 0's "ids.window_close_ns"

  // Telemetry instruments, resolved under shard 0's domain at arm().
  // detect-lag series are *simulated* time (boundary - capture timestamp
  // over truth-malicious rows), so they are seed-deterministic and safe
  // for the byte-identical telemetry contract; window_close_ns is wall.
  obs::Counter* m_windows_closed_ = nullptr;   // "ids.windows_closed"
  obs::Counter* m_rows_ = nullptr;             // "ids.rows"
  obs::Gauge* m_window_rows_ = nullptr;        // "ids.window_rows"
  obs::Gauge* m_detect_lag_p99_ = nullptr;     // "ids.detect_lag_p99_ns"
  obs::Histogram* m_detect_lag_ns_ = nullptr;  // "ids.detect_lag_ns"
};

/// Fixed-rule reference detector for the scale pipeline: flags rows whose
/// (normalized) destination port matches the flood port. Model quality is
/// out of scope for the scale benches — the cost under test is capture,
/// accumulation and merge — while real models plug in unchanged.
class FloodPortDetector : public ml::Classifier {
 public:
  explicit FloodPortDetector(std::uint16_t flood_port) : flood_port_{flood_port} {}

  std::string name() const override { return "flood-port"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  int predict(std::span<const double> row) const override;
  bool trained() const override { return true; }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return sizeof(flood_port_); }
  std::uint64_t inference_scratch_bytes() const override { return 0; }

 private:
  std::uint16_t flood_port_;
};

}  // namespace ddoshield::core

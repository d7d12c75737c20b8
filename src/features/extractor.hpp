// Windowed feature aggregation (Fig. 2's "preprocessing of data" stage).
//
// Packets stream in timestamp order (the tap guarantees this in real time;
// datasets are stored in capture order). The aggregator buffers one window
// (default 1 s, user-configurable per the paper), computes the statistical
// features when the window closes, stamps them onto every packet's basic
// features, and emits the labelled rows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "capture/dataset.hpp"
#include "capture/packet_record.hpp"
#include "features/schema.hpp"
#include "features/window_stats.hpp"
#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::features {

/// One closed window's worth of feature rows.
struct WindowOutput {
  std::uint64_t window_index = 0;
  util::SimTime window_start;
  WindowStats stats;
  std::vector<FeatureRow> rows;
  std::vector<int> labels;  // 0 benign / 1 malicious, row-aligned
};

struct AggregatorConfig {
  util::SimTime window = util::SimTime::seconds(1);
};

class FeatureAggregator {
 public:
  using WindowFn = std::function<void(const WindowOutput&)>;

  explicit FeatureAggregator(AggregatorConfig config = {});

  void set_on_window(WindowFn fn) { on_window_ = std::move(fn); }

  /// Feeds one packet; closes (and emits) any windows that ended before
  /// this packet's timestamp. Packets must arrive in timestamp order.
  void add(const capture::PacketRecord& record);

  /// Closes the current partial window (end of run).
  void flush();

  std::uint64_t windows_emitted() const { return windows_emitted_; }
  util::SimTime window_duration() const { return config_.window; }

 private:
  void close_window();

  AggregatorConfig config_;
  WindowFn on_window_;
  std::vector<capture::PacketRecord> buffer_;
  std::uint64_t current_window_ = 0;
  bool have_window_ = false;
  std::uint64_t windows_emitted_ = 0;

  // Registry instruments ("features.*"), resolved once at construction.
  obs::Counter* m_packets_;
  obs::Counter* m_windows_;
  obs::Histogram* m_extract_ns_;
};

/// Labelled design matrix built from a whole dataset in one pass — the
/// offline path used for model training.
struct FeatureMatrix {
  std::vector<FeatureRow> rows;
  std::vector<int> labels;

  std::size_t size() const { return rows.size(); }
};

/// Runs the aggregator over a dataset (including the final partial window).
FeatureMatrix extract_features(const capture::Dataset& dataset,
                               AggregatorConfig config = {});

}  // namespace ddoshield::features

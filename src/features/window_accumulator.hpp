// Streaming per-window feature accumulator.
//
// compute_window_stats recomputes every tally over the full window buffer
// at close — an O(packets) spike exactly on the window boundary, which the
// flight recorder attributes as the dominant window-close latency at fleet
// scale. WindowAccumulator is that same fold split into incremental
// `add`/`add_batch` (amortised over the window as batches flush) plus an
// O(uniques) `finalize` that only walks the flow/port tables. The fold is
// operation-for-operation the loop inside compute_window_stats, and the
// flat path of compute_window_stats is now implemented *via* this class,
// so incremental accumulation is bit-identical to the one-shot recompute
// by construction (the equality the fuzz matrix pins).
//
// Determinism across shard layouts (DESIGN.md §15): entropy finalisation
// sorts keys, and all count tallies are exact integers, so they are
// fold-order free. The two Welford accumulators (sequence variance, mean
// payload) are NOT: floating-point folds depend on order. Two rules make
// per-tap partials shard-layout-invariant anyway:
//
//  * canonical ties (`set_canonical_ties(true)`): same-timestamp runs are
//    buffered and folded in sorted record-content order, erasing the one
//    source of cross-layout order divergence in a per-tap stream (event
//    tie-breaks at equal nanoseconds). Off by default — the flat IDS path
//    folds in exact arrival order to stay bit-identical to the per-record
//    compute_window_stats recompute.
//  * ordered merge (`merge_from`): partial accumulators are folded with
//    Chan's parallel-Welford combination, which is deterministic only for
//    a fixed merge order — callers merge per-tap partials in tap creation
//    order, never in thread-completion order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "capture/flat_table.hpp"
#include "capture/flow.hpp"
#include "capture/packet_record.hpp"
#include "capture/record_batch.hpp"
#include "features/schema.hpp"
#include "features/window_stats.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace ddoshield::features {

namespace detail {

struct U64Hash {
  std::size_t operator()(std::uint64_t v) const {
    return static_cast<std::size_t>(capture::mix_u64(v));
  }
};

// Flat-table drop-in for util::FrequencyCounter on the per-packet path.
// entropy() sums in ascending key order — the same order std::map iterates —
// so the two counter policies produce bit-identical feature values despite
// the hash table's unordered slots (and despite any merge history).
class FlatFrequencyCounter {
 public:
  void add(std::uint64_t key, std::uint64_t weight = 1) {
    counts_.find_or_insert(key) += weight;
    total_ += weight;
  }

  void merge_from(const FlatFrequencyCounter& other) {
    other.counts_.for_each(
        [this](const std::uint64_t& key, const std::uint64_t& c) { add(key, c); });
  }

  double entropy() const {
    if (total_ == 0 || counts_.size() <= 1) return 0.0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
    sorted.reserve(counts_.size());
    counts_.for_each([&](const std::uint64_t& key, const std::uint64_t& c) {
      sorted.emplace_back(key, c);
    });
    std::sort(sorted.begin(), sorted.end());
    double h = 0.0;
    const double n = static_cast<double>(total_);
    for (const auto& [key, c] : sorted) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / n;
      h -= p * std::log2(p);
    }
    return h;
  }

 private:
  capture::FlatTable<std::uint64_t, std::uint64_t, U64Hash> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace detail

class WindowAccumulator {
 public:
  /// `packet_hint` pre-sizes the flow table like the one-shot recompute
  /// does (capacity is invisible in the output values).
  explicit WindowAccumulator(std::size_t packet_hint = 0);

  void set_canonical_ties(bool on) { canonical_ties_ = on; }
  bool canonical_ties() const { return canonical_ties_; }

  /// Folds one record. Timestamps must be nondecreasing across calls when
  /// canonical ties are on (capture order guarantees this per tap).
  void add(const capture::PacketRecord& r);

  /// Folds batch rows [begin, end) in order.
  void add_batch(const capture::RecordBatch& batch, std::size_t begin, std::size_t end);
  void add_batch(const capture::RecordBatch& batch) { add_batch(batch, 0, batch.size()); }

  /// Folds the buffered same-timestamp run (canonical-ties mode). Must be
  /// called before merge_from reads this accumulator as a source; finalize
  /// calls it implicitly.
  void flush_ties();

  /// Folds another (tie-flushed) partial accumulator in. Deterministic
  /// only for a fixed merge order — see the header comment.
  void merge_from(const WindowAccumulator& other);

  /// O(uniques) close: walks the tables, never the packets.
  WindowStats finalize(util::SimTime window_duration);

  std::uint64_t packets() const { return packet_count_ + run_.size(); }

  void reset(std::size_t packet_hint = 0);

 private:
  void fold(const capture::PacketRecord& r);

  bool canonical_ties_ = false;
  std::vector<capture::PacketRecord> run_;  // pending same-timestamp run

  capture::FlatTable<capture::FlowKey, std::uint32_t, capture::FlowKeyHash> flow_packets_;
  capture::FlatTable<std::uint64_t, std::uint32_t, detail::U64Hash> syn_per_src_dport_;
  detail::FlatFrequencyCounter dst_ports_;
  detail::FlatFrequencyCounter src_addrs_;
  util::OnlineStats seq_stats_;
  util::OnlineStats payload_stats_;
  std::uint64_t packet_count_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t tcp_packets_ = 0;
  std::uint64_t udp_packets_ = 0;
  std::uint64_t syn_no_ack_ = 0;
};

/// Shard-layout-invariant total order on record content (timestamp first,
/// then every header field; uid excluded — uids encode the shard layout).
bool record_content_less(const capture::PacketRecord& a, const capture::PacketRecord& b);

/// Canonical ordering of batch rows [begin, end): capture order with
/// same-timestamp runs sorted by record content — the row order matching
/// a canonical-ties fold. Returns absolute batch indices.
std::vector<std::uint32_t> canonical_batch_order(const capture::RecordBatch& batch,
                                                 std::size_t begin, std::size_t end);

/// Vectorised row building, in place: writes one row per entry of `order`
/// (absolute batch indices) into `out`, row-major, kFeatureCount cells per
/// row, with no temporaries. The statistical block is stamped once and the
/// basic block filled in per-column sweeps (bit-identical to
/// make_feature_row per row). Throws std::invalid_argument unless `out`
/// holds exactly those rows.
void make_feature_rows(const capture::RecordBatch& batch, std::span<const std::uint32_t> order,
                       const WindowStats& stats, std::span<double> out);

}  // namespace ddoshield::features

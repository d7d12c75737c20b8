// Per-window statistical features (§IV-A of the paper): packet counts,
// destination-port entropy, port-usage frequency patterns (short-lived
// connections, repeated attempts), SYN-without-ACK analysis, flow rate,
// and sequence-number variance.
#pragma once

#include <cstdint>
#include <span>

#include "capture/packet_record.hpp"
#include "features/schema.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::features {

struct WindowStats {
  std::uint64_t packet_count = 0;
  double byte_rate = 0.0;          // wire bytes per second over the window
  double dst_port_entropy = 0.0;   // bits
  double src_addr_entropy = 0.0;   // bits
  double syn_no_ack_ratio = 0.0;   // SYN-without-ACK / TCP packets
  double short_lived_flows = 0.0;  // 5-tuples with <=2 packets in window
  double repeated_attempts = 0.0;  // (src,dst_port) pairs with >=3 SYNs
  double seq_variance_log = 0.0;   // log10(1 + var(seq)) over TCP packets
  double mean_payload = 0.0;
  double udp_fraction = 0.0;

  /// Writes the statistical block of `row` (indices kWinPacketCount..).
  void fill_row(FeatureRow& row) const;
};

/// Computes the statistics over one window's packets.
/// `window_duration` must be positive; it scales byte_rate. Folds through
/// WindowAccumulator (open-addressing flow/SYN tallies, key-sorted entropy
/// sums), so the result is bit-identical to the original tree-map
/// implementation that tests/features_test.cpp keeps as its reference.
WindowStats compute_window_stats(std::span<const capture::PacketRecord> packets,
                                 util::SimTime window_duration);

/// Builds the basic-feature prefix of a row from one packet.
void fill_basic_features(const capture::PacketRecord& record, FeatureRow& row);

/// Convenience: basic + statistical in one row.
FeatureRow make_feature_row(const capture::PacketRecord& record, const WindowStats& stats);

}  // namespace ddoshield::features

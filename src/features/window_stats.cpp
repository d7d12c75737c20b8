#include "features/window_stats.hpp"

#include <stdexcept>

#include "features/window_accumulator.hpp"

namespace ddoshield::features {

void WindowStats::fill_row(FeatureRow& row) const {
  row[kWinPacketCount] = static_cast<double>(packet_count);
  row[kWinByteRate] = byte_rate;
  row[kWinDstPortEntropy] = dst_port_entropy;
  row[kWinSrcAddrEntropy] = src_addr_entropy;
  row[kWinSynNoAckRatio] = syn_no_ack_ratio;
  row[kWinShortLivedFlows] = short_lived_flows;
  row[kWinRepeatedAttempts] = repeated_attempts;
  row[kWinSeqVarianceLog] = seq_variance_log;
  row[kWinMeanPayload] = mean_payload;
  row[kWinUdpFraction] = udp_fraction;
}

WindowStats compute_window_stats(std::span<const capture::PacketRecord> packets,
                                 util::SimTime window_duration) {
  if (window_duration <= util::SimTime{}) {
    throw std::invalid_argument("compute_window_stats: window duration must be positive");
  }
  WindowStats stats;
  if (packets.empty()) return stats;
  // One fold implementation shared with the streaming accumulator, so
  // recompute-at-close and incremental accumulation are bit-identical by
  // construction.
  WindowAccumulator acc{packets.size()};
  for (const auto& r : packets) acc.add(r);
  return acc.finalize(window_duration);
}

void fill_basic_features(const capture::PacketRecord& record, FeatureRow& row) {
  row[kTimestamp] = record.timestamp.to_seconds();
  row[kSrcAddr] = static_cast<double>(record.src_addr) / 4294967296.0;
  row[kDstAddr] = static_cast<double>(record.dst_addr) / 4294967296.0;
  row[kProtoIsTcp] = record.is_tcp() ? 1.0 : 0.0;
  row[kSrcPort] = static_cast<double>(record.src_port) / 65535.0;
  row[kDstPort] = static_cast<double>(record.dst_port) / 65535.0;
  row[kPayloadBytes] = static_cast<double>(record.payload_bytes);
}

FeatureRow make_feature_row(const capture::PacketRecord& record, const WindowStats& stats) {
  FeatureRow row{};
  fill_basic_features(record, row);
  stats.fill_row(row);
  return row;
}

}  // namespace ddoshield::features

#include "features/schema.hpp"

#include <stdexcept>

namespace ddoshield::features {

namespace {
constexpr std::array<std::string_view, kFeatureCount> kNames = {
    "timestamp_s",          "src_addr",            "dst_addr",
    "proto_is_tcp",         "src_port",            "dst_port",
    "payload_bytes",        "win_packet_count",    "win_byte_rate",
    "win_dst_port_entropy", "win_src_addr_entropy", "win_syn_no_ack_ratio",
    "win_short_lived_flows", "win_repeated_attempts", "win_seq_variance_log",
    "win_mean_payload",     "win_udp_fraction",
};

// The streaming loop assembles its vector in endpoint-pair order
// (src addr, src port, dst addr, dst port — the tshark field order) with
// protocol after the endpoints, and emits the statistical block in
// computation order: cheap per-packet counters first (count, udp
// fraction, mean payload, byte rate), then the entropy passes, then the
// flow-table aggregates, then the sequence-variance accumulator. The
// offline CSV schema above instead groups addresses, then protocol, then
// ports. Both vectors are width-17 arrays of doubles; nothing checks
// column names downstream.
constexpr std::array<std::size_t, kFeatureCount> kStreamingOrder = {
    kTimestamp,          kSrcAddr,           kSrcPort,
    kDstAddr,            kDstPort,           kProtoIsTcp,
    kPayloadBytes,       kWinPacketCount,    kWinUdpFraction,
    kWinMeanPayload,     kWinByteRate,       kWinDstPortEntropy,
    kWinSrcAddrEntropy,  kWinShortLivedFlows, kWinRepeatedAttempts,
    kWinSynNoAckRatio,   kWinSeqVarianceLog,
};
}  // namespace

std::span<const std::size_t> streaming_column_order() { return kStreamingOrder; }

FeatureRow to_streaming_order(const FeatureRow& offline_row) {
  FeatureRow out{};
  for (std::size_t i = 0; i < kFeatureCount; ++i) out[i] = offline_row[kStreamingOrder[i]];
  return out;
}

std::string_view feature_name(std::size_t index) {
  if (index >= kNames.size()) throw std::out_of_range("feature_name: bad index");
  return kNames[index];
}

}  // namespace ddoshield::features

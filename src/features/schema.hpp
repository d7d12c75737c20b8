// Feature schema shared by the extractor, the ML models, and the IDS.
//
// Follows the paper (§IV-A) literally. The *basic* features are the packet
// attributes the paper lists: timestamp, source/destination IP address,
// protocol type, and source/destination port (plus the payload size, a
// standard capture attribute). Note that per-packet TCP flags are NOT
// basic features — in the paper, flag behaviour enters only through the
// windowed statistics (SYN-without-ACK analysis). The *statistical*
// features are computed per time window and are identical for every packet
// of a window — deliberately so; that design choice (together with the
// absolute timestamp being a trainable feature) is what produces the
// real-time accuracy behaviour of Table I and the boundary-window dips.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

namespace ddoshield::features {

// Basic (per-packet) features.
inline constexpr std::size_t kTimestamp = 0;     // seconds since run start
inline constexpr std::size_t kSrcAddr = 1;       // normalized /2^32
inline constexpr std::size_t kDstAddr = 2;       // normalized /2^32
inline constexpr std::size_t kProtoIsTcp = 3;
inline constexpr std::size_t kSrcPort = 4;       // normalized /65535
inline constexpr std::size_t kDstPort = 5;       // normalized /65535
inline constexpr std::size_t kPayloadBytes = 6;
inline constexpr std::size_t kBasicFeatureCount = 7;

// Statistical (per-window) features, equal across a window's packets.
inline constexpr std::size_t kWinPacketCount = 7;
inline constexpr std::size_t kWinByteRate = 8;
inline constexpr std::size_t kWinDstPortEntropy = 9;
inline constexpr std::size_t kWinSrcAddrEntropy = 10;
inline constexpr std::size_t kWinSynNoAckRatio = 11;
inline constexpr std::size_t kWinShortLivedFlows = 12;
inline constexpr std::size_t kWinRepeatedAttempts = 13;
inline constexpr std::size_t kWinSeqVarianceLog = 14;
inline constexpr std::size_t kWinMeanPayload = 15;
inline constexpr std::size_t kWinUdpFraction = 16;
inline constexpr std::size_t kFeatureCount = 17;

using FeatureRow = std::array<double, kFeatureCount>;

/// Human-readable name of one feature, index-aligned with the constants
/// above; throws std::out_of_range for bad indices.
std::string_view feature_name(std::size_t index);

/// The column order the *streaming* feature implementation emits, as a
/// permutation: streaming_column_order()[i] is the offline-schema index of
/// the value that the real-time loop writes at position i. The basic block
/// is identical; the statistical block is emitted in computation order
/// (cheap counters first, then entropies, then flow-table aggregates),
/// which differs from the offline CSV export's schema order above.
///
/// This mirrors the paper artifact's split pipeline: the offline training
/// scripts read the exported CSV, while the real-time component assembles
/// its vectors inline. Models trained and served through the same code are
/// unaffected; a model trained on the CSV order but served the streaming
/// order silently consumes permuted statistics — see EXPERIMENTS.md (E3).
std::span<const std::size_t> streaming_column_order();

/// Re-orders an offline-schema row into the streaming order.
FeatureRow to_streaming_order(const FeatureRow& offline_row);

}  // namespace ddoshield::features

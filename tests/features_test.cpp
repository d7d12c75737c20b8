// Tests for the feature schema, per-window statistics, and the aggregator.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "capture/dataset.hpp"
#include "features/extractor.hpp"
#include "features/schema.hpp"
#include "features/window_stats.hpp"
#include "frequency_counter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ddoshield::features {
namespace {

using capture::PacketRecord;
using util::SimTime;

PacketRecord tcp_packet(std::int64_t t_ms, std::uint32_t src, std::uint16_t sport,
                        std::uint16_t dport, std::uint8_t flags, std::uint32_t payload,
                        std::uint32_t seq = 0,
                        net::TrafficOrigin origin = net::TrafficOrigin::kHttp) {
  PacketRecord r;
  r.timestamp = SimTime::millis(t_ms);
  r.src_addr = src;
  r.dst_addr = net::Ipv4Address(10, 0, 1, 1).bits();
  r.src_port = sport;
  r.dst_port = dport;
  r.protocol = 6;
  r.tcp_flags = flags;
  r.seq = seq;
  r.payload_bytes = payload;
  r.wire_bytes = payload + 40;
  r.origin = origin;
  r.label = net::traffic_class_of(origin);
  return r;
}

PacketRecord udp_packet(std::int64_t t_ms, std::uint16_t dport, std::uint32_t payload) {
  PacketRecord r;
  r.timestamp = SimTime::millis(t_ms);
  r.src_addr = net::Ipv4Address(10, 1, 0, 10).bits();
  r.dst_addr = net::Ipv4Address(10, 0, 1, 1).bits();
  r.src_port = 40000;
  r.dst_port = dport;
  r.protocol = 17;
  r.payload_bytes = payload;
  r.wire_bytes = payload + 28;
  r.origin = net::TrafficOrigin::kMiraiUdpFlood;
  r.label = net::TrafficClass::kMalicious;
  return r;
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

TEST(SchemaTest, NamesAlignWithConstants) {
  EXPECT_EQ(feature_name(kTimestamp), "timestamp_s");
  EXPECT_EQ(feature_name(kSrcAddr), "src_addr");
  EXPECT_EQ(feature_name(kPayloadBytes), "payload_bytes");
  EXPECT_EQ(feature_name(kWinPacketCount), "win_packet_count");
  EXPECT_EQ(feature_name(kWinUdpFraction), "win_udp_fraction");
  EXPECT_THROW(feature_name(kFeatureCount), std::out_of_range);
}

TEST(SchemaTest, StreamingOrderIsAPermutation) {
  const auto order = streaming_column_order();
  ASSERT_EQ(order.size(), kFeatureCount);
  std::set<std::size_t> seen{order.begin(), order.end()};
  EXPECT_EQ(seen.size(), kFeatureCount);
  // Timestamp leads in both layouts; the blocks differ internally.
  EXPECT_EQ(order[0], kTimestamp);
  bool any_moved = false;
  for (std::size_t i = 0; i < kFeatureCount; ++i) any_moved |= order[i] != i;
  EXPECT_TRUE(any_moved);
}

TEST(SchemaTest, ToStreamingOrderPermutesValues) {
  FeatureRow row{};
  for (std::size_t i = 0; i < kFeatureCount; ++i) row[i] = static_cast<double>(i);
  const FeatureRow streamed = to_streaming_order(row);
  const auto order = streaming_column_order();
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    EXPECT_DOUBLE_EQ(streamed[i], static_cast<double>(order[i]));
  }
}

// --------------------------------------------------------------------------
// Basic features
// --------------------------------------------------------------------------

TEST(BasicFeaturesTest, ValuesAndNormalisation) {
  const auto r = tcp_packet(2500, net::Ipv4Address(10, 0, 0, 7).bits(), 50000, 80,
                            net::TcpFlags::kSyn, 444);
  FeatureRow row{};
  fill_basic_features(r, row);
  EXPECT_DOUBLE_EQ(row[kTimestamp], 2.5);
  EXPECT_NEAR(row[kSrcAddr], net::Ipv4Address(10, 0, 0, 7).bits() / 4294967296.0, 1e-12);
  EXPECT_DOUBLE_EQ(row[kProtoIsTcp], 1.0);
  EXPECT_NEAR(row[kSrcPort], 50000.0 / 65535.0, 1e-12);
  EXPECT_NEAR(row[kDstPort], 80.0 / 65535.0, 1e-12);
  EXPECT_DOUBLE_EQ(row[kPayloadBytes], 444.0);
}

// --------------------------------------------------------------------------
// Window statistics
// --------------------------------------------------------------------------

TEST(WindowStatsTest, EmptyWindowIsAllZero) {
  const WindowStats stats = compute_window_stats({}, SimTime::seconds(1));
  EXPECT_EQ(stats.packet_count, 0u);
  EXPECT_EQ(stats.byte_rate, 0.0);
  EXPECT_EQ(stats.dst_port_entropy, 0.0);
}

TEST(WindowStatsTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(compute_window_stats({}, SimTime::seconds(0)), std::invalid_argument);
}

TEST(WindowStatsTest, PacketCountAndByteRate) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 10; ++i) {
    packets.push_back(tcp_packet(i, 1, 1000, 80, net::TcpFlags::kAck, 60));  // 100 wire
  }
  const WindowStats stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_EQ(stats.packet_count, 10u);
  EXPECT_DOUBLE_EQ(stats.byte_rate, 1000.0);  // 10 x 100 bytes / 1 s
  EXPECT_DOUBLE_EQ(stats.mean_payload, 60.0);
}

TEST(WindowStatsTest, DstPortEntropyUniformVsConcentrated) {
  std::vector<PacketRecord> uniform, focused;
  for (int i = 0; i < 64; ++i) {
    uniform.push_back(udp_packet(i, static_cast<std::uint16_t>(9000 + i), 100));
    focused.push_back(udp_packet(i, 9000, 100));
  }
  const auto u = compute_window_stats(uniform, SimTime::seconds(1));
  const auto f = compute_window_stats(focused, SimTime::seconds(1));
  EXPECT_NEAR(u.dst_port_entropy, 6.0, 1e-9);  // log2(64)
  EXPECT_EQ(f.dst_port_entropy, 0.0);
  EXPECT_GT(u.dst_port_entropy, f.dst_port_entropy);
}

TEST(WindowStatsTest, SynNoAckRatioCountsOnlyBareSyns) {
  std::vector<PacketRecord> packets;
  packets.push_back(tcp_packet(0, 1, 1000, 80, net::TcpFlags::kSyn, 0));  // counts
  packets.push_back(
      tcp_packet(1, 1, 80, 1000, net::TcpFlags::kSyn | net::TcpFlags::kAck, 0));  // no
  packets.push_back(tcp_packet(2, 1, 1000, 80, net::TcpFlags::kAck, 100));        // no
  packets.push_back(tcp_packet(3, 2, 2000, 80, net::TcpFlags::kSyn, 0));          // counts
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(stats.syn_no_ack_ratio, 0.5);
}

TEST(WindowStatsTest, SynRatioZeroWithoutTcp) {
  std::vector<PacketRecord> packets{udp_packet(0, 9000, 100)};
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_EQ(stats.syn_no_ack_ratio, 0.0);
  EXPECT_DOUBLE_EQ(stats.udp_fraction, 1.0);
}

TEST(WindowStatsTest, ShortLivedFlowsCountsSmallFlows) {
  std::vector<PacketRecord> packets;
  // One busy flow: 5 packets.
  for (int i = 0; i < 5; ++i) {
    packets.push_back(tcp_packet(i, 1, 1000, 80, net::TcpFlags::kAck, 10));
  }
  // Three one-packet flows.
  for (int i = 0; i < 3; ++i) {
    packets.push_back(
        tcp_packet(10 + i, 2, static_cast<std::uint16_t>(5000 + i), 80, net::TcpFlags::kSyn, 0));
  }
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(stats.short_lived_flows, 3.0);
}

// --------------------------------------------------------------------------
// FrequencyCounter (the oracle behind the reference window statistics)
// --------------------------------------------------------------------------

TEST(FrequencyCounterTest, EntropyUniformIsLogN) {
  test_oracle::FrequencyCounter fc;
  for (std::uint64_t k = 0; k < 8; ++k) fc.add(k, 10);
  EXPECT_NEAR(fc.entropy(), 3.0, 1e-12);  // log2(8)
}

TEST(FrequencyCounterTest, EntropySingleKeyIsZero) {
  test_oracle::FrequencyCounter fc;
  fc.add(80, 1000);
  EXPECT_EQ(fc.entropy(), 0.0);
  EXPECT_EQ(fc.max_share(), 1.0);
}

TEST(FrequencyCounterTest, EmptyEntropyZero) {
  test_oracle::FrequencyCounter fc;
  EXPECT_EQ(fc.entropy(), 0.0);
  EXPECT_EQ(fc.max_share(), 0.0);
  EXPECT_EQ(fc.distinct(), 0u);
}

TEST(FrequencyCounterTest, SkewReducesEntropy) {
  test_oracle::FrequencyCounter uniform, skewed;
  for (std::uint64_t k = 0; k < 4; ++k) uniform.add(k, 25);
  skewed.add(0, 97);
  for (std::uint64_t k = 1; k < 4; ++k) skewed.add(k, 1);
  EXPECT_GT(uniform.entropy(), skewed.entropy());
  EXPECT_GT(skewed.max_share(), 0.9);
}

TEST(FrequencyCounterTest, CountsAndReset) {
  test_oracle::FrequencyCounter fc;
  fc.add(53);
  fc.add(53);
  fc.add(80);
  EXPECT_EQ(fc.count_of(53), 2u);
  EXPECT_EQ(fc.count_of(99), 0u);
  EXPECT_EQ(fc.total(), 3u);
  fc.reset();
  EXPECT_EQ(fc.total(), 0u);
}

// The original tree-map window statistics: the reference the production
// fold (open-addressing FlatTables, key-sorted entropy sums) must match bit
// for bit.
WindowStats compute_with_maps(std::span<const PacketRecord> packets, SimTime window_duration) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t, std::uint8_t>,
           std::uint32_t>
      flow_packets;
  std::map<std::tuple<std::uint32_t, std::uint16_t>, std::uint32_t> syn_per_src_dport;
  test_oracle::FrequencyCounter dst_ports;
  test_oracle::FrequencyCounter src_addrs;
  util::OnlineStats seq_stats;
  util::OnlineStats payload_stats;
  std::uint64_t total_bytes = 0;
  std::uint64_t tcp_packets = 0;
  std::uint64_t udp_packets = 0;
  std::uint64_t syn_no_ack = 0;

  for (const auto& r : packets) {
    total_bytes += r.wire_bytes;
    dst_ports.add(r.dst_port);
    src_addrs.add(r.src_addr);
    payload_stats.add(static_cast<double>(r.payload_bytes));
    ++flow_packets[{r.src_addr, r.dst_addr, r.src_port, r.dst_port, r.protocol}];
    if (r.is_tcp()) {
      ++tcp_packets;
      seq_stats.add(static_cast<double>(r.seq));
      if (r.has_flag(net::TcpFlags::kSyn) && !r.has_flag(net::TcpFlags::kAck)) {
        ++syn_no_ack;
        ++syn_per_src_dport[{r.src_addr, r.dst_port}];
      }
    } else if (r.is_udp()) {
      ++udp_packets;
    }
  }

  std::uint64_t short_lived = 0;
  for (const auto& [key, count] : flow_packets) short_lived += count <= 2;
  std::uint64_t repeated = 0;
  for (const auto& [key, syns] : syn_per_src_dport) repeated += syns >= 3;

  WindowStats stats;
  stats.packet_count = packets.size();
  stats.byte_rate = static_cast<double>(total_bytes) / window_duration.to_seconds();
  stats.dst_port_entropy = dst_ports.entropy();
  stats.src_addr_entropy = src_addrs.entropy();
  stats.syn_no_ack_ratio =
      tcp_packets == 0 ? 0.0 : static_cast<double>(syn_no_ack) / static_cast<double>(tcp_packets);
  stats.short_lived_flows = static_cast<double>(short_lived);
  stats.repeated_attempts = static_cast<double>(repeated);
  stats.seq_variance_log = std::log10(1.0 + seq_stats.variance());
  stats.mean_payload = payload_stats.mean();
  stats.udp_fraction = packets.empty()
                           ? 0.0
                           : static_cast<double>(udp_packets) / static_cast<double>(packets.size());
  return stats;
}

TEST(WindowStatsTest, ReferenceCountersMatchFlatCountersBitForBit) {
  // A mixed window exercising every counter: repeated flows, one-packet
  // flows, bare SYNs (some past the repeated-attempts threshold), UDP with
  // spread and concentrated ports, several source addresses.
  std::vector<PacketRecord> packets;
  util::Rng rng{99};
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    const auto sport = static_cast<std::uint16_t>(rng.uniform_int(1024, 1024 + 30));
    if (i % 3 == 0) {
      packets.push_back(udp_packet(i, static_cast<std::uint16_t>(rng.uniform_int(9000, 9040)),
                                   static_cast<std::uint32_t>(rng.uniform_int(0, 500))));
    } else {
      const std::uint8_t flags =
          i % 5 == 0 ? net::TcpFlags::kSyn : static_cast<std::uint8_t>(net::TcpFlags::kAck);
      packets.push_back(tcp_packet(i, src, sport, 80, flags,
                                   static_cast<std::uint32_t>(rng.uniform_int(0, 900)),
                                   static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))));
    }
  }

  const WindowStats flat = compute_window_stats(packets, SimTime::seconds(1));
  const WindowStats reference = compute_with_maps(packets, SimTime::seconds(1));

  // The flat counters sort before summing entropy precisely so the two
  // implementations agree bit for bit, not just within a tolerance.
  EXPECT_EQ(reference.packet_count, flat.packet_count);
  EXPECT_EQ(reference.byte_rate, flat.byte_rate);
  EXPECT_EQ(reference.dst_port_entropy, flat.dst_port_entropy);
  EXPECT_EQ(reference.src_addr_entropy, flat.src_addr_entropy);
  EXPECT_EQ(reference.syn_no_ack_ratio, flat.syn_no_ack_ratio);
  EXPECT_EQ(reference.short_lived_flows, flat.short_lived_flows);
  EXPECT_EQ(reference.repeated_attempts, flat.repeated_attempts);
  EXPECT_EQ(reference.seq_variance_log, flat.seq_variance_log);
  EXPECT_EQ(reference.mean_payload, flat.mean_payload);
  EXPECT_EQ(reference.udp_fraction, flat.udp_fraction);
}

TEST(WindowStatsTest, RepeatedAttemptsNeedThreeSyns) {
  std::vector<PacketRecord> packets;
  for (int i = 0; i < 3; ++i) {
    packets.push_back(
        tcp_packet(i, 7, static_cast<std::uint16_t>(1000 + i), 80, net::TcpFlags::kSyn, 0));
  }
  packets.push_back(tcp_packet(5, 8, 2000, 80, net::TcpFlags::kSyn, 0));  // only one
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(stats.repeated_attempts, 1.0);
}

TEST(WindowStatsTest, SeqVarianceLowForStreamHighForRandom) {
  std::vector<PacketRecord> stream, random;
  util::Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    stream.push_back(
        tcp_packet(i, 1, 1000, 80, net::TcpFlags::kAck, 100, 100000u + i * 100u));
    random.push_back(tcp_packet(i, 1, 1000, 80, net::TcpFlags::kAck, 100,
                                static_cast<std::uint32_t>(rng.next_u64())));
  }
  const auto s = compute_window_stats(stream, SimTime::seconds(1));
  const auto r = compute_window_stats(random, SimTime::seconds(1));
  EXPECT_LT(s.seq_variance_log, 10.0);
  EXPECT_GT(r.seq_variance_log, 15.0);
}

TEST(WindowStatsTest, SrcAddrEntropyDistinguishesSpoofing) {
  std::vector<PacketRecord> single, spoofed;
  util::Rng rng{12};
  for (int i = 0; i < 100; ++i) {
    single.push_back(tcp_packet(i, 42, 1000, 80, net::TcpFlags::kSyn, 0));
    spoofed.push_back(tcp_packet(i, static_cast<std::uint32_t>(rng.next_u64()), 1000, 80,
                                 net::TcpFlags::kSyn, 0));
  }
  const auto s = compute_window_stats(single, SimTime::seconds(1));
  const auto f = compute_window_stats(spoofed, SimTime::seconds(1));
  EXPECT_EQ(s.src_addr_entropy, 0.0);
  EXPECT_GT(f.src_addr_entropy, 6.0);
}

TEST(WindowStatsTest, StatsFillRowBlock) {
  std::vector<PacketRecord> packets{udp_packet(0, 9000, 100), udp_packet(1, 9001, 100)};
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  const FeatureRow row = make_feature_row(packets[0], stats);
  EXPECT_DOUBLE_EQ(row[kWinPacketCount], 2.0);
  EXPECT_DOUBLE_EQ(row[kWinUdpFraction], 1.0);
  EXPECT_DOUBLE_EQ(row[kWinDstPortEntropy], 1.0);  // two distinct ports
  EXPECT_DOUBLE_EQ(row[kProtoIsTcp], 0.0);
}

// --------------------------------------------------------------------------
// 1 s window boundaries: single-packet windows, an empty window between
// populated ones, and a packet stamped exactly on the window edge.
// --------------------------------------------------------------------------

TEST(WindowStatsTest, SinglePacketWindowIsFullyDefined) {
  std::vector<PacketRecord> packets{tcp_packet(250, 1, 1000, 80, net::TcpFlags::kSyn, 0, 7)};
  const auto stats = compute_window_stats(packets, SimTime::seconds(1));
  EXPECT_EQ(stats.packet_count, 1u);
  EXPECT_DOUBLE_EQ(stats.byte_rate, 40.0);     // one 40-byte header per second
  EXPECT_DOUBLE_EQ(stats.dst_port_entropy, 0.0);
  EXPECT_DOUBLE_EQ(stats.src_addr_entropy, 0.0);
  EXPECT_DOUBLE_EQ(stats.syn_no_ack_ratio, 1.0);
  EXPECT_DOUBLE_EQ(stats.short_lived_flows, 1.0);
  EXPECT_DOUBLE_EQ(stats.repeated_attempts, 0.0);  // one SYN, not three
  EXPECT_DOUBLE_EQ(stats.seq_variance_log, 0.0);   // a single seq has no variance
  EXPECT_DOUBLE_EQ(stats.mean_payload, 0.0);
  EXPECT_DOUBLE_EQ(stats.udp_fraction, 0.0);
}

TEST(WindowStatsTest, EmptyWindowStaysZeroWithAnyDuration) {
  const auto stats = compute_window_stats({}, SimTime::millis(1));
  EXPECT_EQ(stats.packet_count, 0u);
  EXPECT_DOUBLE_EQ(stats.byte_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.udp_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.seq_variance_log, 0.0);
}

TEST(AggregatorTest, PacketExactlyOnWindowEdgeOpensTheNextWindow) {
  FeatureAggregator agg;
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });

  // Window 0 is [0, 1000) ms: 999 ms is the last tick inside it, and a
  // packet stamped exactly at the 1000 ms edge belongs to window 1.
  agg.add(tcp_packet(999, 1, 1000, 80, 0, 10));
  agg.add(tcp_packet(1000, 1, 1000, 80, 0, 10));
  agg.add(tcp_packet(1999, 1, 1000, 80, 0, 10));
  agg.add(tcp_packet(2000, 1, 1000, 80, 0, 10));
  agg.flush();

  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].window_index, 0u);
  EXPECT_EQ(windows[0].rows.size(), 1u);
  EXPECT_EQ(windows[1].window_index, 1u);
  EXPECT_EQ(windows[1].rows.size(), 2u);  // the edge packet + 1999 ms
  EXPECT_EQ(windows[1].window_start, SimTime::seconds(1));
  EXPECT_EQ(windows[2].window_index, 2u);
  EXPECT_EQ(windows[2].rows.size(), 1u);
  EXPECT_EQ(windows[2].window_start, SimTime::seconds(2));
}

TEST(AggregatorTest, SingleEdgePacketMakesASingletonWindow) {
  FeatureAggregator agg;
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });
  agg.add(tcp_packet(3000, 1, 1000, 80, 0, 10));  // exactly on the w3 edge
  agg.flush();

  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].window_index, 3u);
  EXPECT_EQ(windows[0].rows.size(), 1u);
  // The statistical block of a singleton window is well-defined.
  EXPECT_DOUBLE_EQ(windows[0].rows[0][kWinPacketCount], 1.0);
}

// --------------------------------------------------------------------------
// FeatureAggregator
// --------------------------------------------------------------------------

TEST(AggregatorTest, RejectsBadWindow) {
  EXPECT_THROW(FeatureAggregator(AggregatorConfig{SimTime::seconds(0)}),
               std::invalid_argument);
}

TEST(AggregatorTest, SplitsPacketsIntoWindows) {
  FeatureAggregator agg;
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });

  // 3 packets in window 0, 2 in window 1, 1 in window 3 (window 2 empty).
  for (int t : {100, 400, 900}) agg.add(tcp_packet(t, 1, 1000, 80, 0, 10));
  for (int t : {1100, 1900}) agg.add(tcp_packet(t, 1, 1000, 80, 0, 10));
  agg.add(tcp_packet(3500, 1, 1000, 80, 0, 10));
  agg.flush();

  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].window_index, 0u);
  EXPECT_EQ(windows[0].rows.size(), 3u);
  EXPECT_EQ(windows[1].window_index, 1u);
  EXPECT_EQ(windows[1].rows.size(), 2u);
  EXPECT_EQ(windows[2].window_index, 3u);
  EXPECT_EQ(windows[2].rows.size(), 1u);
  EXPECT_EQ(windows[2].window_start, SimTime::seconds(3));
  EXPECT_EQ(agg.windows_emitted(), 3u);
}

TEST(AggregatorTest, StatisticalBlockSharedWithinWindow) {
  FeatureAggregator agg;
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });
  agg.add(tcp_packet(0, 1, 1000, 80, net::TcpFlags::kSyn, 0));
  agg.add(udp_packet(500, 9000, 300));
  agg.flush();

  ASSERT_EQ(windows.size(), 1u);
  const auto& rows = windows[0].rows;
  ASSERT_EQ(rows.size(), 2u);
  for (std::size_t f = kWinPacketCount; f < kFeatureCount; ++f) {
    EXPECT_DOUBLE_EQ(rows[0][f], rows[1][f]) << "stat feature " << f;
  }
  // Basic block differs.
  EXPECT_NE(rows[0][kProtoIsTcp], rows[1][kProtoIsTcp]);
}

TEST(AggregatorTest, LabelsAlignWithRows) {
  FeatureAggregator agg;
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });
  agg.add(tcp_packet(0, 1, 1000, 80, 0, 10, 0, net::TrafficOrigin::kHttp));
  agg.add(tcp_packet(1, 1, 1001, 80, 0, 10, 0, net::TrafficOrigin::kMiraiSynFlood));
  agg.flush();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].labels, (std::vector<int>{0, 1}));
}

TEST(AggregatorTest, OutOfOrderPacketsRejected) {
  FeatureAggregator agg;
  agg.set_on_window([](const WindowOutput&) {});
  agg.add(tcp_packet(2500, 1, 1000, 80, 0, 10));
  EXPECT_THROW(agg.add(tcp_packet(500, 1, 1000, 80, 0, 10)), std::invalid_argument);
}

TEST(AggregatorTest, FlushOnEmptyIsNoOp) {
  FeatureAggregator agg;
  int calls = 0;
  agg.set_on_window([&](const WindowOutput&) { ++calls; });
  agg.flush();
  EXPECT_EQ(calls, 0);
}

TEST(AggregatorTest, CustomWindowDuration) {
  FeatureAggregator agg{AggregatorConfig{SimTime::millis(500)}};
  std::vector<WindowOutput> windows;
  agg.set_on_window([&](const WindowOutput& w) { windows.push_back(w); });
  agg.add(tcp_packet(100, 1, 1000, 80, 0, 10));
  agg.add(tcp_packet(600, 1, 1000, 80, 0, 10));
  agg.flush();
  EXPECT_EQ(windows.size(), 2u);
  EXPECT_EQ(agg.window_duration(), SimTime::millis(500));
}

TEST(ExtractFeaturesTest, MatrixAlignsWithDataset) {
  capture::Dataset ds;
  for (int i = 0; i < 25; ++i) {
    ds.add(tcp_packet(i * 200, 1, 1000, 80, net::TcpFlags::kAck, 10, 0,
                      i % 5 == 0 ? net::TrafficOrigin::kMiraiAckFlood
                                 : net::TrafficOrigin::kHttp));
  }
  const FeatureMatrix fm = extract_features(ds);
  EXPECT_EQ(fm.size(), 25u);
  EXPECT_EQ(fm.rows.size(), fm.labels.size());
  int malicious = 0;
  for (int l : fm.labels) malicious += l;
  EXPECT_EQ(malicious, 5);
  // Row i corresponds to dataset record i (insertion order preserved).
  EXPECT_DOUBLE_EQ(fm.rows[7][kTimestamp], 1.4);
}

}  // namespace
}  // namespace ddoshield::features

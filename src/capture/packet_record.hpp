// The captured-packet record: what the testbed's pcap-equivalent stores
// for every packet crossing the tap, and the only view of traffic the IDS
// feature extractor is allowed to see (headers + sizes + timing), plus the
// ground-truth label used for training and for scoring detection.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::capture {

struct PacketRecord {
  util::SimTime timestamp;
  std::uint32_t src_addr = 0;
  std::uint32_t dst_addr = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;  // IpProto numeric value (6 tcp / 17 udp)
  std::uint8_t tcp_flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t wire_bytes = 0;

  // Ground truth (never exposed to features).
  net::TrafficClass label = net::TrafficClass::kBenign;
  net::TrafficOrigin origin = net::TrafficOrigin::kInfrastructure;

  /// Simulator packet uid, carried through so the IDS can correlate flight
  /// recorder stages. In-memory only: the 12-field CSV format is pinned by
  /// exported datasets, so the uid is 0 for records read back from CSV.
  std::uint64_t uid = 0;

  static PacketRecord from_packet(const net::Packet& pkt, util::SimTime at);

  bool is_tcp() const { return protocol == 6; }
  bool is_udp() const { return protocol == 17; }
  bool has_flag(std::uint8_t f) const { return (tcp_flags & f) != 0; }
  bool is_malicious() const { return label == net::TrafficClass::kMalicious; }

  /// CSV row matching csv_header().
  std::string to_csv() const;
  static std::string csv_header();
};

}  // namespace ddoshield::capture

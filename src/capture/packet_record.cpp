#include "capture/packet_record.hpp"

#include <sstream>

namespace ddoshield::capture {

PacketRecord PacketRecord::from_packet(const net::Packet& pkt, util::SimTime at) {
  PacketRecord r;
  r.timestamp = at;
  r.src_addr = pkt.src.bits();
  r.dst_addr = pkt.dst.bits();
  r.src_port = pkt.src_port;
  r.dst_port = pkt.dst_port;
  r.protocol = static_cast<std::uint8_t>(pkt.proto);
  r.tcp_flags = pkt.tcp_flags;
  r.seq = pkt.seq;
  r.payload_bytes = pkt.payload_bytes;
  r.wire_bytes = pkt.wire_bytes();
  r.origin = pkt.origin;
  r.label = net::traffic_class_of(pkt.origin);
  r.uid = pkt.uid;
  return r;
}

std::string PacketRecord::csv_header() {
  return "timestamp_ns,src_addr,dst_addr,src_port,dst_port,protocol,tcp_flags,seq,"
         "payload_bytes,wire_bytes,label,origin";
}

std::string PacketRecord::to_csv() const {
  std::ostringstream os;
  os << timestamp.ns() << ',' << src_addr << ',' << dst_addr << ',' << src_port << ','
     << dst_port << ',' << static_cast<int>(protocol) << ',' << static_cast<int>(tcp_flags)
     << ',' << seq << ',' << payload_bytes << ',' << wire_bytes << ','
     << static_cast<int>(label) << ',' << static_cast<int>(origin);
  return os.str();
}

}  // namespace ddoshield::capture

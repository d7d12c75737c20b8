#include "capture/flow.hpp"

namespace ddoshield::capture {

void FlowTable::add(const PacketRecord& record) {
  FlowRecord& flow = flows_.find_or_insert(FlowKey::of(record));
  if (flow.packets == 0) flow.first_seen = record.timestamp;
  flow.last_seen = record.timestamp;
  ++flow.packets;
  flow.bytes += record.wire_bytes;
  if (record.is_tcp()) {
    flow.syn_count += record.has_flag(net::TcpFlags::kSyn);
    flow.fin_count += record.has_flag(net::TcpFlags::kFin);
    flow.rst_count += record.has_flag(net::TcpFlags::kRst);
  }
  flow.malicious = flow.malicious || record.is_malicious();
}

std::size_t FlowTable::short_lived_count(util::SimTime max_duration,
                                         std::uint64_t max_packets) const {
  std::size_t n = 0;
  flows_.for_each([&](const FlowKey&, const FlowRecord& flow) {
    if (flow.duration() <= max_duration && flow.packets <= max_packets) ++n;
  });
  return n;
}

}  // namespace ddoshield::capture

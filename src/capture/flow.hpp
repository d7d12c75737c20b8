// Flow tracking over captured packets.
//
// A flow is the directional 5-tuple. The table powers flow-level analysis:
// short-lived-connection detection, repeated connection attempts, per-flow
// byte/packet accounting — and gives experiments a Wireshark-
// "conversations"-style view of a run. Storage is an open-addressing
// FlatTable, so the per-packet add() is a probe over contiguous slots
// rather than a tree walk with a node allocation.
#pragma once

#include <cstdint>
#include <utility>

#include "capture/flat_table.hpp"
#include "capture/packet_record.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::capture {

struct FlowKey {
  std::uint32_t src_addr = 0;
  std::uint32_t dst_addr = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

  static FlowKey of(const PacketRecord& r) {
    return FlowKey{r.src_addr, r.dst_addr, r.src_port, r.dst_port, r.protocol};
  }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    const std::uint64_t addrs = (std::uint64_t{k.src_addr} << 32) | k.dst_addr;
    const std::uint64_t rest = (std::uint64_t{k.src_port} << 24) |
                               (std::uint64_t{k.dst_port} << 8) | k.protocol;
    return static_cast<std::size_t>(mix_u64(addrs ^ mix_u64(rest)));
  }
};

struct FlowRecord {
  util::SimTime first_seen;
  util::SimTime last_seen;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint32_t syn_count = 0;
  std::uint32_t fin_count = 0;
  std::uint32_t rst_count = 0;
  bool malicious = false;  // any packet labelled malicious taints the flow

  util::SimTime duration() const { return last_seen - first_seen; }
};

class FlowTable {
 public:
  void add(const PacketRecord& record);

  std::size_t flow_count() const { return flows_.size(); }

  /// Looks up one flow; nullptr when the 5-tuple was never seen.
  const FlowRecord* find(const FlowKey& key) const { return flows_.find(key); }

  /// Visits every flow in (deterministic) table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    flows_.for_each(std::forward<Fn>(fn));
  }

  /// Flows shorter than `max_duration` with at most `max_packets` packets —
  /// the scanning / failed-handshake signature.
  std::size_t short_lived_count(util::SimTime max_duration, std::uint64_t max_packets) const;

  void clear() { flows_.clear(); }

  const FlatTable<FlowKey, FlowRecord, FlowKeyHash>& table() const { return flows_; }

 private:
  FlatTable<FlowKey, FlowRecord, FlowKeyHash> flows_;
};

}  // namespace ddoshield::capture

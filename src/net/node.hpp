// A simulated host or router.
//
// Each Node owns one IPv4 address, a set of link interfaces, a static
// routing table, and its transport layers (UdpHost, TcpHost). Hosts with
// forwarding enabled act as routers. Taps observe every packet the node
// sends or receives — the capture module's attachment point, playing the
// role of the paper's Wireshark/pcap probe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::obs {
class FlightRecorder;
}

namespace ddoshield::net {

class TcpHost;
class UdpHost;

enum class TapDirection { kSent, kReceived };

using TapFn = std::function<void(const Packet&, TapDirection)>;

/// What an ingress filter decided about an arriving packet. The drop
/// variants are charged to distinct node stats and obs counters so packet
/// conservation stays checkable with enforcement enabled.
enum class FilterVerdict : std::uint8_t {
  kAccept = 0,
  kDropAcl,        // matched an installed blocklist rule
  kDropRateLimit,  // exceeded the source's token bucket
};

/// Enforcement hook consulted before any local delivery or forwarding —
/// the simulated analogue of an edge router's ACL/policer stage. Installed
/// by the mitigation subsystem; a node without a filter pays one branch.
class IngressFilter {
 public:
  virtual ~IngressFilter() = default;
  virtual FilterVerdict on_packet(const Packet& pkt) = 0;
};

struct NodeStats {
  std::uint64_t sent_packets = 0;
  std::uint64_t received_packets = 0;
  std::uint64_t forwarded_packets = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_link = 0;
  std::uint64_t dropped_acl = 0;        // ingress filter: blocklist rule
  std::uint64_t dropped_ratelimit = 0;  // ingress filter: token bucket
};

class Node {
 public:
  Node(Simulator& sim, std::string name, Ipv4Address addr);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  Ipv4Address address() const { return addr_; }
  Simulator& simulator() { return sim_; }

  // --- topology ----------------------------------------------------------
  /// Registered by Link's constructor; returns the new interface index.
  std::size_t attach_link(Link& link);
  std::size_t interface_count() const { return links_.size(); }
  Link& link_at(std::size_t ifindex) { return *links_.at(ifindex); }

  void set_forwarding(bool on) { forwarding_ = on; }
  bool forwarding() const { return forwarding_; }

  // --- routing ------------------------------------------------------------
  void add_route(Ipv4Address prefix, int prefix_len, std::size_t ifindex);
  void set_default_route(std::size_t ifindex);
  /// Longest-prefix-match; returns -1 if no route exists. The router's
  /// table holds one /32 per device, so the scan is O(devices); tables of
  /// kRouteCacheMinRoutes or more memoise dst -> ifindex in a direct-mapped
  /// exact-match cache with identical lookup results.
  int route_lookup(Ipv4Address dst) const;

  // --- datapath -----------------------------------------------------------
  /// Sends a packet originated at this node. Stamps uid/timestamp; the
  /// source address defaults to this node's address when unspecified,
  /// but a caller-set source is honoured (address spoofing by bots).
  void send(Packet pkt);

  /// Entry point from links: local delivery or forwarding.
  void deliver(Packet pkt);

  // --- transports -----------------------------------------------------------
  UdpHost& udp() { return *udp_; }
  TcpHost& tcp() { return *tcp_; }

  /// Ephemeral source-port allocator (1024-65535, wraps around).
  std::uint16_t allocate_ephemeral_port();

  // --- enforcement -----------------------------------------------------------
  /// Installs (or, with nullptr, removes) the ingress filter consulted at
  /// the top of deliver(). The filter must outlive its installation.
  void set_ingress_filter(IngressFilter* filter) { ingress_filter_ = filter; }
  IngressFilter* ingress_filter() const { return ingress_filter_; }

  // --- observation ----------------------------------------------------------
  void add_tap(TapFn tap) { taps_.push_back(std::move(tap)); }
  const NodeStats& stats() const { return stats_; }

 private:
  struct RouteEntry {
    Ipv4Address prefix;
    int prefix_len;
    std::size_t ifindex;
  };

  struct RouteCacheEntry {
    std::uint64_t tag = 0;  // dst address bits + 1; 0 marks an empty slot
    int ifindex = -1;
  };
  static constexpr std::size_t kRouteCacheSlots = 256;
  /// Routing tables smaller than this skip the cache entirely: leaf nodes
  /// hold one or two routes, and for them the scan is already cheaper than
  /// a cache probe plus 4 KiB of cold cache lines per node.
  static constexpr std::size_t kRouteCacheMinRoutes = 8;

  int route_lookup_scan(Ipv4Address dst) const;
  void invalidate_route_cache();

  void run_taps(const Packet& pkt, TapDirection dir);

  Simulator& sim_;
  std::string name_;
  Ipv4Address addr_;
  std::vector<Link*> links_;
  std::vector<RouteEntry> routes_;
  mutable std::unique_ptr<RouteCacheEntry[]> route_cache_;  // lazily built
  int default_route_ = -1;
  bool forwarding_ = false;
  std::uint32_t port_rng_state_ = 0x6b8b4567;
  std::vector<TapFn> taps_;
  NodeStats stats_;
  IngressFilter* ingress_filter_ = nullptr;
  std::unique_ptr<UdpHost> udp_;
  std::unique_ptr<TcpHost> tcp_;
  obs::Counter* m_acl_dropped_;
  obs::Counter* m_ratelimit_dropped_;

  // Flight-recorder wiring for the local-delivery stage (send-to-deliver
  // lag of uid-sampled packets terminating at this node).
  obs::FlightRecorder* flight_;
  obs::LogLinearHistogram* lat_deliver_ns_;
};

}  // namespace ddoshield::net

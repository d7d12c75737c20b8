#include "net/node.hpp"

#include <stdexcept>

#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace ddoshield::net {

namespace {

// Fibonacci multiplicative hash: star-topology addresses are dense
// (10.0.x.y), so low-bit masking alone would collide whole subnets into a
// handful of slots.
std::size_t route_cache_slot(std::uint32_t bits) {
  return static_cast<std::size_t>((bits * 0x9e3779b1u) >> 24);
}
}  // namespace

Node::Node(Simulator& sim, std::string name, Ipv4Address addr)
    : sim_{sim}, name_{std::move(name)}, addr_{addr} {
  port_rng_state_ ^= addr.bits() * 2654435761u;  // per-node port sequence
  if (port_rng_state_ == 0) port_rng_state_ = 0x6b8b4567;
  udp_ = std::make_unique<UdpHost>(*this);
  tcp_ = std::make_unique<TcpHost>(*this);
  flight_ = &obs::FlightRecorder::global();
  lat_deliver_ns_ = &obs::MetricsRegistry::global().latency("flight.net.deliver_lag_ns");
  auto& reg = obs::MetricsRegistry::global();
  m_acl_dropped_ = &reg.counter("net.acl_dropped");
  m_ratelimit_dropped_ = &reg.counter("net.ratelimit_dropped");
}

Node::~Node() = default;

std::size_t Node::attach_link(Link& link) {
  links_.push_back(&link);
  return links_.size() - 1;
}

void Node::add_route(Ipv4Address prefix, int prefix_len, std::size_t ifindex) {
  if (ifindex >= links_.size()) {
    throw std::out_of_range("Node::add_route: no such interface");
  }
  routes_.push_back(RouteEntry{prefix, prefix_len, ifindex});
  invalidate_route_cache();
}

void Node::set_default_route(std::size_t ifindex) {
  if (ifindex >= links_.size()) {
    throw std::out_of_range("Node::set_default_route: no such interface");
  }
  default_route_ = static_cast<int>(ifindex);
  invalidate_route_cache();
}

void Node::invalidate_route_cache() { route_cache_.reset(); }

int Node::route_lookup_scan(Ipv4Address dst) const {
  int best = -1;
  int best_len = -1;
  for (const auto& r : routes_) {
    if (dst.same_subnet(r.prefix, r.prefix_len) && r.prefix_len > best_len) {
      best = static_cast<int>(r.ifindex);
      best_len = r.prefix_len;
    }
  }
  if (best >= 0) return best;
  return default_route_;
}

int Node::route_lookup(Ipv4Address dst) const {
  if (routes_.size() < kRouteCacheMinRoutes) {
    return route_lookup_scan(dst);
  }
  if (!route_cache_) {
    route_cache_ = std::make_unique<RouteCacheEntry[]>(kRouteCacheSlots);
  }
  const std::uint64_t tag = std::uint64_t{dst.bits()} + 1;
  RouteCacheEntry& entry = route_cache_[route_cache_slot(dst.bits())];
  if (entry.tag != tag) {
    entry.tag = tag;
    entry.ifindex = route_lookup_scan(dst);
  }
  return entry.ifindex;
}

std::uint16_t Node::allocate_ephemeral_port() {
  // Randomised ephemeral allocation over 1024-65535, like modern stacks
  // (RFC 6056). IoT stacks vary, but none hand out a narrow contiguous
  // band per boot — and Mirai draws its flood source ports from the same
  // range, so the source port alone must not give an IDS a free label.
  port_rng_state_ ^= port_rng_state_ << 13;
  port_rng_state_ ^= port_rng_state_ >> 17;
  port_rng_state_ ^= port_rng_state_ << 5;
  return static_cast<std::uint16_t>(1024 + port_rng_state_ % 64512);
}

void Node::run_taps(const Packet& pkt, TapDirection dir) {
  for (const auto& tap : taps_) tap(pkt, dir);
}

void Node::send(Packet pkt) {
  if (pkt.src.is_unspecified()) pkt.src = addr_;
  pkt.sent_at = sim_.now();
  pkt.uid = sim_.next_packet_uid();

  const int ifindex = route_lookup(pkt.dst);
  if (ifindex < 0) {
    ++stats_.dropped_no_route;
    return;
  }
  ++stats_.sent_packets;
  run_taps(pkt, TapDirection::kSent);
  if (!links_[static_cast<std::size_t>(ifindex)]->transmit(*this, std::move(pkt))) {
    ++stats_.dropped_link;
  }
}

void Node::deliver(Packet pkt) {
  // Enforcement first: a filtered packet is dropped before taps, transports,
  // or forwarding see it, exactly like a hardware ACL/policer ahead of the
  // forwarding plane. Links already counted the delivery, so per-link
  // conservation is unaffected; the node-level stats and the global
  // counters carry the mitigation accounting instead.
  if (ingress_filter_ != nullptr) {
    switch (ingress_filter_->on_packet(pkt)) {
      case FilterVerdict::kAccept:
        break;
      case FilterVerdict::kDropAcl:
        ++stats_.dropped_acl;
        m_acl_dropped_->inc();
        return;
      case FilterVerdict::kDropRateLimit:
        ++stats_.dropped_ratelimit;
        m_ratelimit_dropped_->inc();
        return;
    }
  }

  if (pkt.dst == addr_) {
    ++stats_.received_packets;
    run_taps(pkt, TapDirection::kReceived);
    switch (pkt.proto) {
      case IpProto::kTcp:
        if (flight_->sampled(pkt.uid)) {
          const util::SimTime now = sim_.now();
          flight_->record(obs::FlightStage::kTcpDeliver, pkt.uid, now.ns());
          lat_deliver_ns_->observe(static_cast<std::uint64_t>((now - pkt.sent_at).ns()));
        }
        tcp_->deliver(pkt);
        break;
      case IpProto::kUdp:
        udp_->deliver(pkt);
        break;
    }
    return;
  }

  if (!forwarding_) return;  // not for us, not a router: drop

  if (pkt.ttl <= 1) {
    ++stats_.dropped_ttl;
    return;
  }
  pkt.ttl -= 1;

  const int ifindex = route_lookup(pkt.dst);
  if (ifindex < 0) {
    ++stats_.dropped_no_route;
    return;
  }
  ++stats_.forwarded_packets;
  if (!links_[static_cast<std::size_t>(ifindex)]->transmit(*this, std::move(pkt))) {
    ++stats_.dropped_link;
  }
}

}  // namespace ddoshield::net

// UDP sockets over the simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/address.hpp"
#include "net/packet.hpp"

namespace ddoshield::net {

class Node;
class UdpHost;

/// A bound UDP endpoint. Obtained from UdpHost::open; dropping the last
/// shared_ptr releases the port.
class UdpSocket : public std::enable_shared_from_this<UdpSocket> {
 public:
  using ReceiveFn = std::function<void(const Packet&)>;

  std::uint16_t port() const { return port_; }

  void set_receive_callback(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Sends a datagram to `dst`. `origin` labels the traffic for ground
  /// truth; payload is the modelled size plus optional app message.
  void send_to(Endpoint dst, std::uint32_t payload_bytes, TrafficOrigin origin,
               std::string app_data = {});

 private:
  friend class UdpHost;
  UdpSocket(UdpHost& host, std::uint16_t port) : host_{&host}, port_{port} {}

  UdpHost* host_;
  std::uint16_t port_;
  ReceiveFn on_receive_;
};

/// Per-node UDP demultiplexer.
class UdpHost {
 public:
  explicit UdpHost(Node& node) : node_{node} {}

  /// Binds a socket; port 0 picks an ephemeral port. Throws if the port
  /// is already bound.
  std::shared_ptr<UdpSocket> open(std::uint16_t port = 0);

  /// Called by the node for every locally-addressed UDP packet.
  void deliver(const Packet& pkt);

  std::uint64_t delivered() const { return delivered_; }
  /// Datagrams that arrived for a port nobody listens on — under a UDP
  /// flood this is the dominant counter.
  std::uint64_t dropped_no_socket() const { return dropped_no_socket_; }

  Node& node() { return node_; }

 private:
  Node& node_;
  std::map<std::uint16_t, std::weak_ptr<UdpSocket>> sockets_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_no_socket_ = 0;
};

}  // namespace ddoshield::net

#include "net/udp.hpp"

#include <stdexcept>

#include "net/node.hpp"

namespace ddoshield::net {

void UdpSocket::send_to(Endpoint dst, std::uint32_t payload_bytes, TrafficOrigin origin,
                        std::string app_data) {
  Packet pkt;
  pkt.dst = dst.addr;
  pkt.dst_port = dst.port;
  pkt.src_port = port_;
  pkt.proto = IpProto::kUdp;
  pkt.payload_bytes = payload_bytes;
  pkt.app_data = std::move(app_data);
  pkt.origin = origin;
  host_->node().send(std::move(pkt));
}

std::shared_ptr<UdpSocket> UdpHost::open(std::uint16_t port) {
  if (port == 0) {
    do {
      port = node_.allocate_ephemeral_port();
    } while (sockets_.contains(port));
  } else if (auto it = sockets_.find(port); it != sockets_.end() && !it->second.expired()) {
    throw std::invalid_argument("UdpHost::open: port already bound");
  }
  auto socket = std::shared_ptr<UdpSocket>(new UdpSocket{*this, port});
  sockets_[port] = socket;
  return socket;
}

void UdpHost::deliver(const Packet& pkt) {
  const auto it = sockets_.find(pkt.dst_port);
  if (it == sockets_.end()) {
    ++dropped_no_socket_;
    return;
  }
  auto socket = it->second.lock();
  if (!socket) {
    sockets_.erase(it);
    ++dropped_no_socket_;
    return;
  }
  ++delivered_;
  if (socket->on_receive_) socket->on_receive_(pkt);
}

}  // namespace ddoshield::net

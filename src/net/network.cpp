#include "net/network.hpp"

#include <stdexcept>

namespace ddoshield::net {

Node& Network::add_node(const std::string& name, Ipv4Address addr) {
  for (const auto& n : nodes_) {
    if (n->name() == name) throw std::invalid_argument("Network: duplicate node name " + name);
    if (n->address() == addr) {
      throw std::invalid_argument("Network: duplicate address " + addr.to_string());
    }
  }
  nodes_.push_back(std::make_unique<Node>(sim_, name, addr));
  return *nodes_.back();
}

Link& Network::add_link(Node& a, Node& b, LinkConfig config) {
  links_.push_back(std::make_unique<Link>(sim_, a, b, config));
  return *links_.back();
}

StarTopology build_star_topology(Network& net, const StarTopologyConfig& config) {
  StarTopology topo;

  topo.router = &net.add_node("router", Ipv4Address{10, 0, 0, 1});
  topo.router->set_forwarding(true);

  topo.tserver = &net.add_node("tserver", Ipv4Address{10, 0, 1, 1});
  topo.uplink = &net.add_link(*topo.router, *topo.tserver, config.uplink);
  // On the router the uplink is interface 0; route the server subnet there.
  topo.router->add_route(Ipv4Address{10, 0, 1, 0}, 24, 0);
  topo.tserver->set_default_route(0);

  topo.attacker = &net.add_node("attacker", Ipv4Address{10, 0, 0, 2});
  net.add_link(*topo.router, *topo.attacker, config.access_link);
  topo.router->add_route(topo.attacker->address(), 32, topo.router->interface_count() - 1);
  topo.attacker->set_default_route(0);

  topo.devices.reserve(config.device_count);
  for (std::size_t i = 0; i < config.device_count; ++i) {
    // Device addresses 10.0.0.10, .11, ... leave room for infrastructure.
    const auto last_octet = static_cast<std::uint8_t>(10 + i % 240);
    const auto third_octet = static_cast<std::uint8_t>(i / 240);
    Node& dev = net.add_node("dev_" + std::to_string(i),
                             Ipv4Address{10, 1, third_octet, last_octet});
    net.add_link(*topo.router, dev, config.access_link);
    topo.router->add_route(dev.address(), 32, topo.router->interface_count() - 1);
    dev.set_default_route(0);
    topo.devices.push_back(&dev);
  }
  return topo;
}

}  // namespace ddoshield::net

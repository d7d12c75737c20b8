// Network: owns the simulator, nodes, and links of one topology, plus a
// builder for the testbed's canonical star layout (devices and attacker on
// access links into a router, router uplinked to the TServer and IDS tap).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"

namespace ddoshield::net {

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& simulator() { return sim_; }

  /// Creates a node owned by the network.
  Node& add_node(const std::string& name, Ipv4Address addr);

  /// Creates a duplex link between two owned nodes.
  Link& add_link(Node& a, Node& b, LinkConfig config = {});

  std::size_t node_count() const { return nodes_.size(); }
  Node& node_at(std::size_t i) { return *nodes_.at(i); }
  std::size_t link_count() const { return links_.size(); }
  Link& link_at(std::size_t i) { return *links_.at(i); }

 private:
  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

/// The testbed's standard topology:
///
///   dev_0 ... dev_{n-1}  attacker            (10.0.0.0/24 side)
///        \   |   /        |
///          router ———————— tserver           (10.0.1.1)
///
/// Every leaf gets its own access link into the router; the router-TServer
/// uplink is the bottleneck the floods congest, and the node the capture
/// tap watches. Mirrors DDoSim's ghost-node bridge layout.
struct StarTopology {
  Node* router = nullptr;
  Node* tserver = nullptr;
  Node* attacker = nullptr;
  std::vector<Node*> devices;
  Link* uplink = nullptr;  // router <-> tserver
};

struct StarTopologyConfig {
  std::size_t device_count = 8;
  LinkConfig access_link{.rate_bps = 20e6,
                         .delay = util::SimTime::millis(2),
                         .queue_bytes = 64 * 1024};
  LinkConfig uplink{.rate_bps = 100e6,
                    .delay = util::SimTime::millis(1),
                    .queue_bytes = 256 * 1024};
};

StarTopology build_star_topology(Network& net, const StarTopologyConfig& config);

}  // namespace ddoshield::net

// Container and image model.
//
// DDoShield-IoT runs each role (Devs, Attacker, TServer, IDS) as a Docker
// container bridged onto the NS-3 network through a ghost node. This module
// reproduces the *semantics* that matter to the testbed: named images with
// an entrypoint, container lifecycle (created → running → stopped), and a
// network bridge binding the container to exactly one simulated node.
// Table II's CPU and memory figures come from the IDS's own
// ids::ResourceMeter.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/node.hpp"

namespace ddoshield::container {

/// A container image: a named template whose entrypoint is invoked when a
/// container created from it starts. The entrypoint receives the container
/// so it can reach the bridged node and the environment.
class Container;
using Entrypoint = std::function<void(Container&)>;

struct Image {
  std::string name;     // e.g. "ddoshield/dev"
  std::string tag;      // e.g. "1.0"
  Entrypoint entrypoint;

  std::string ref() const { return name + ":" + tag; }
};

enum class ContainerState { kCreated, kRunning, kStopped };

class Container {
 public:
  Container(std::string name, Image image);

  const std::string& name() const { return name_; }
  const Image& image() const { return image_; }
  ContainerState state() const { return state_; }

  // --- network bridge ------------------------------------------------------
  /// Binds the container to its ghost node. Must happen before start();
  /// rebinding a running container throws (as would re-plumbing docker
  /// networking live).
  void attach_node(net::Node& node);
  bool has_node() const { return node_ != nullptr; }
  net::Node& node();

  // --- lifecycle -----------------------------------------------------------
  /// Runs the image entrypoint. Throws if already running or no node bound.
  /// Restarting a stopped/killed container is legal (docker restart);
  /// restart_count() tracks starts beyond the first.
  void start();
  void stop();
  /// Abrupt termination (docker kill / a crashing workload): every process
  /// in the container dies, so stop hooks still run — their job is to
  /// cancel the dead processes' pending sim timers — but the exit is
  /// recorded as a crash for the fault-injection bookkeeping.
  void kill();
  /// Registers teardown work run at stop() (apps cancel their timers here).
  void on_stop(std::function<void()> fn) { stop_hooks_.push_back(std::move(fn)); }

  bool last_exit_crashed() const { return last_exit_crashed_; }
  std::uint64_t restart_count() const { return restart_count_; }

 private:
  std::string name_;
  Image image_;
  ContainerState state_ = ContainerState::kCreated;
  net::Node* node_ = nullptr;
  std::vector<std::function<void()>> stop_hooks_;
  bool started_once_ = false;
  bool last_exit_crashed_ = false;
  std::uint64_t restart_count_ = 0;
};

}  // namespace ddoshield::container

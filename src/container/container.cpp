#include "container/container.hpp"

#include <stdexcept>

namespace ddoshield::container {

Container::Container(std::string name, Image image)
    : name_{std::move(name)}, image_{std::move(image)} {}

void Container::attach_node(net::Node& node) {
  if (state_ == ContainerState::kRunning) {
    throw std::logic_error("Container::attach_node: container is running");
  }
  node_ = &node;
}

net::Node& Container::node() {
  if (node_ == nullptr) {
    throw std::logic_error("Container::node: no node attached to " + name_);
  }
  return *node_;
}

void Container::start() {
  if (state_ == ContainerState::kRunning) {
    throw std::logic_error("Container::start: already running: " + name_);
  }
  if (node_ == nullptr) {
    throw std::logic_error("Container::start: no network bridge for " + name_);
  }
  if (started_once_) ++restart_count_;
  started_once_ = true;
  last_exit_crashed_ = false;
  state_ = ContainerState::kRunning;
  if (image_.entrypoint) image_.entrypoint(*this);
}

void Container::stop() {
  if (state_ != ContainerState::kRunning) return;
  state_ = ContainerState::kStopped;
  for (auto& hook : stop_hooks_) hook();
  stop_hooks_.clear();
}

void Container::kill() {
  if (state_ != ContainerState::kRunning) return;
  stop();
  last_exit_crashed_ = true;
}

}  // namespace ddoshield::container

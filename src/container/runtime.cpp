#include "container/runtime.hpp"

#include <stdexcept>

namespace ddoshield::container {

void ContainerRuntime::register_image(Image image) {
  images_[image.ref()] = std::move(image);
}

const Image& ContainerRuntime::image(const std::string& ref) const {
  const auto it = images_.find(ref);
  if (it == images_.end()) {
    throw std::invalid_argument("ContainerRuntime: unknown image " + ref);
  }
  return it->second;
}

Container& ContainerRuntime::create(const std::string& container_name,
                                    const std::string& image_ref) {
  if (containers_.contains(container_name)) {
    throw std::invalid_argument("ContainerRuntime: duplicate container name " + container_name);
  }
  auto c = std::make_unique<Container>(container_name, image(image_ref));
  auto& ref = *c;
  containers_[container_name] = std::move(c);
  return ref;
}

Container& ContainerRuntime::get(const std::string& container_name) {
  const auto it = containers_.find(container_name);
  if (it == containers_.end()) {
    throw std::invalid_argument("ContainerRuntime: no such container " + container_name);
  }
  return *it->second;
}

void ContainerRuntime::stop_all() {
  for (auto& [name, c] : containers_) c->stop();
}

std::vector<std::string> ContainerRuntime::list() const {
  std::vector<std::string> names;
  names.reserve(containers_.size());
  for (const auto& [name, c] : containers_) names.push_back(name);
  return names;
}

std::size_t ContainerRuntime::running_count() const {
  std::size_t n = 0;
  for (const auto& [name, c] : containers_) n += c->state() == ContainerState::kRunning;
  return n;
}

}  // namespace ddoshield::container

// Container runtime: the image registry and container lifecycle manager —
// the testbed's stand-in for the Docker daemon.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container/container.hpp"

namespace ddoshield::container {

class ContainerRuntime {
 public:
  /// Registers (or overwrites) an image under name:tag.
  void register_image(Image image);
  bool has_image(const std::string& ref) const { return images_.contains(ref); }
  const Image& image(const std::string& ref) const;

  /// Creates a container from a registered image. Names must be unique.
  Container& create(const std::string& container_name, const std::string& image_ref);

  Container& get(const std::string& container_name);
  bool exists(const std::string& container_name) const {
    return containers_.contains(container_name);
  }

  /// Stops every running container (testbed teardown).
  void stop_all();

  std::vector<std::string> list() const;
  std::size_t running_count() const;

 private:
  std::map<std::string, Image> images_;
  std::map<std::string, std::unique_ptr<Container>> containers_;
};

}  // namespace ddoshield::container

// Base class for simulated applications ("binaries running inside a
// container"). An App is bound to a container, reaches the network through
// the container's bridged node, and owns a deterministic RNG stream.
//
// Scheduling goes through App::schedule so that stopping the app (or its
// container) cancels every pending timer — the simulated equivalent of the
// process dying with the container.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "container/container.hpp"
#include "net/node.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace ddoshield::apps {

class App {
 public:
  App(container::Container& owner, std::string name, util::Rng rng);
  virtual ~App() = default;

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  const std::string& name() const { return name_; }
  bool running() const { return running_; }

  /// Starts the app; registers the stop hook with the container.
  void start();

  /// Stops the app and cancels all pending self-scheduled events.
  void stop();

 protected:
  virtual void on_start() = 0;
  virtual void on_stop() {}

  container::Container& owner() { return owner_; }
  net::Node& node() { return owner_.node(); }
  net::Simulator& sim() { return owner_.node().simulator(); }
  util::Rng& rng() { return rng_; }

  /// Schedules fn after `delay`; auto-cancelled if the app stops first.
  void schedule(util::SimTime delay, std::function<void()> fn);

 private:
  void prune_timers();

  container::Container& owner_;
  std::string name_;
  util::Rng rng_;
  bool running_ = false;
  std::vector<net::EventHandle> timers_;
  std::size_t prune_threshold_ = 64;
};

}  // namespace ddoshield::apps

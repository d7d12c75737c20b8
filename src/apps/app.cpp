#include "apps/app.hpp"

#include <algorithm>

namespace ddoshield::apps {

App::App(container::Container& owner, std::string name, util::Rng rng)
    : owner_{owner}, name_{std::move(name)}, rng_{rng} {}

void App::start() {
  if (running_) return;
  running_ = true;
  owner_.on_stop([this] { stop(); });
  on_start();
}

void App::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& t : timers_) t.cancel();
  timers_.clear();
  on_stop();
}

void App::schedule(util::SimTime delay, std::function<void()> fn) {
  if (!running_) return;
  prune_timers();
  timers_.push_back(sim().schedule(delay, [this, fn = std::move(fn)] {
    if (running_) fn();
  }));
}

void App::prune_timers() {
  // Amortized O(1) per schedule(): scan only when the list has doubled
  // since the last sweep, not on every call — an app holding hundreds of
  // live timers (flood pacing, many parallel sessions) would otherwise
  // pay a full scan per newly armed timer.
  if (timers_.size() < prune_threshold_) return;
  std::erase_if(timers_, [](const net::EventHandle& h) { return !h.pending(); });
  prune_threshold_ = std::max<std::size_t>(64, timers_.size() * 2);
}

}  // namespace ddoshield::apps

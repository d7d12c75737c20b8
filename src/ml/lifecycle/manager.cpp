#include "ml/lifecycle/manager.hpp"

#include <stdexcept>
#include <string>

#include "ml/model_store.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::ml::lifecycle {

LifecycleManager::LifecycleManager(const Classifier& initial_model, std::size_t features,
                                   LifecycleConfig config)
    : config_{config},
      base_model_{&initial_model},
      drift_{features, config.drift},
      replay_{features, config.replay_capacity_rows,
              util::Rng{config.seed}.fork("lifecycle-replay")},
      rng_{util::Rng{config.seed}.fork("lifecycle-manager")} {
  if (!initial_model.trained()) {
    throw std::logic_error("LifecycleManager: initial model must be trained");
  }
  if (config_.apply_latency_windows == 0) config_.apply_latency_windows = 1;
  // Prefer the model's own serving scaler as the drift reference — the
  // affine map the fingerprint skew guard stamps. Models without one
  // (RandomForest) fall back to the detector's online baseline.
  if (const StandardScaler* scaler = initial_model.serving_scaler()) {
    drift_.set_reference(*scaler);
  }
}

std::shared_ptr<const Classifier> LifecycleManager::maybe_swap(std::uint64_t window_index) {
  std::shared_ptr<const Classifier> swapped;
  while (!pending_.empty() && pending_.front().apply_window <= window_index) {
    PendingSwap due = std::move(pending_.front());
    pending_.pop_front();
    ++retrains_completed_;
    if (!due.model) {
      ++retrain_noops_;  // model has no incremental path: keep serving the old one
      continue;
    }
    current_ = std::move(due.model);
    version_ = due.version;
    swaps_.push_back(SwapRecord{version_, window_index, due.trigger_window,
                               due.drift_triggered});
    swapped = current_;
  }
  return swapped;
}

void LifecycleManager::observe_window(std::uint64_t window_index, const DesignMatrix& x,
                                      const std::vector<int>& y) {
  if (x.empty()) return;
  replay_.add_window(x, y);
  const bool alarm = drift_.observe_window(x);
  if (alarm) drift_.reset_alarm();  // re-arm; the trigger below acts on the edge

  ++windows_since_trigger_;
  const bool periodic = config_.retrain_every_windows > 0 &&
                        windows_since_trigger_ >= config_.retrain_every_windows;
  if (!(alarm || periodic)) return;
  if (triggered_yet_ && windows_since_trigger_ < config_.cooldown_windows) return;
  if (replay_.size() < config_.min_replay_rows) return;
  trigger_retrain(window_index, alarm);
}

void LifecycleManager::trigger_retrain(std::uint64_t window_index, bool drift_triggered) {
  const std::uint64_t version = next_version_++;
  // Retrain a clone, never the served object. Serialization carries only
  // parameters, so the clone's retrain hyperparameters (CNN fine-tune
  // epochs, RF refresh fraction, ...) reset to defaults on load; adopting
  // the deployment's knobs BEFORE updating runs the update under the
  // deployed configuration.
  std::unique_ptr<Classifier> clone = deserialize_model(serialize_model(current_model()));
  clone->adopt_deployment(*base_model_);
  DesignMatrix x;
  std::vector<int> y;
  replay_.snapshot(x, y);
  util::Rng rng = rng_.fork_stream("retrain", version);
  std::shared_ptr<const Classifier> model;
  if (clone->incremental_update(x, y, rng)) model = std::move(clone);
  pending_.push_back(PendingSwap{window_index + config_.apply_latency_windows, version,
                                window_index, drift_triggered, std::move(model)});
  triggered_yet_ = true;
  windows_since_trigger_ = 0;
}

LifecycleManager::Stats LifecycleManager::stats() const {
  Stats s;
  s.retrains_triggered = next_version_ - 2;
  s.retrains_completed = retrains_completed_;
  s.retrain_noops = retrain_noops_;
  s.swaps_applied = swaps_.size();
  s.drift_alarms = drift_.alarms();
  return s;
}

void LifecycleManager::publish_metrics() const {
  auto& reg = obs::MetricsRegistry::global();
  const Stats s = stats();
  auto sync_counter = [&reg](const char* name, std::uint64_t total) {
    auto& c = reg.counter(name);
    if (total > c.value()) c.inc(total - c.value());
  };
  sync_counter("lifecycle.retrains_triggered", s.retrains_triggered);
  sync_counter("lifecycle.retrains_completed", s.retrains_completed);
  sync_counter("lifecycle.retrain_noops", s.retrain_noops);
  sync_counter("lifecycle.swaps", s.swaps_applied);
  sync_counter("lifecycle.drift_alarms", s.drift_alarms);
  sync_counter("lifecycle.drift_windows", drift_.drifted_windows());
  reg.gauge("lifecycle.replay_rows").set(static_cast<double>(replay_.size()));
  reg.gauge("lifecycle.pending_swaps").set(static_cast<double>(pending_.size()));
  reg.gauge("lifecycle.drift.max_score").set(drift_.max_score());
  reg.gauge("lifecycle.drift.mean_score").set(drift_.mean_score());
  const auto& scores = drift_.scores();
  for (std::size_t f = 0; f < scores.size(); ++f) {
    reg.gauge("lifecycle.drift.f" + std::to_string(f)).set(scores[f]);
  }
}

}  // namespace ddoshield::ml::lifecycle

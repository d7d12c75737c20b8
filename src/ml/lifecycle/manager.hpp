// Model lifecycle orchestration: drift → retrain → versioned hot-swap.
//
// Owned by the IDS and driven entirely from the simulation thread at
// window-close time:
//
//   maybe_swap(w)       — applies a due hot-swap before window w scores,
//   observe_window(...) — feeds the closed window to the drift detector
//                         and replay buffer, possibly triggering a retrain.
//
// A retrain trigger retrains inline: it clones the currently-served model
// through serialize/deserialize, adopts the deployed model's runtime knobs,
// snapshots the replay buffer, forks a per-version Rng stream and runs
// Classifier::incremental_update on the clone. The finished model waits
// until trigger window + apply_latency_windows, when maybe_swap() swaps it
// in. The retrain costs wall time in the trigger window's close and no sim
// time. Every decision (when to trigger, which data, which rng, when to
// apply) is a pure function of sim-domain state, so same-seed runs swap at
// the same windows to bit-identical models.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/lifecycle/drift.hpp"
#include "ml/lifecycle/replay_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml::lifecycle {

struct LifecycleConfig {
  /// Master switch; an IDS with a disabled config never constructs a
  /// manager (zero overhead).
  bool enabled = false;
  DriftConfig drift;
  /// Replay-buffer reservoir size (rows resident, the memory budget).
  std::size_t replay_capacity_rows = 4096;
  /// Periodic retrain cadence in windows; 0 = drift-alarms only.
  std::uint64_t retrain_every_windows = 0;
  /// Minimum windows between two retrain triggers (alarm or periodic).
  std::uint64_t cooldown_windows = 4;
  /// The swap lands this many windows after its trigger — the "deployment
  /// pipeline" delay. Must be >= 1 so the trigger window itself is scored
  /// by the old model.
  std::uint64_t apply_latency_windows = 2;
  /// Don't retrain until the reservoir holds at least this many rows.
  std::size_t min_replay_rows = 64;
  /// Root seed of the forked per-retrain and replay-buffer Rng streams.
  std::uint64_t seed = 0x11fe;
};

/// One applied hot-swap, for reports and tests.
struct SwapRecord {
  std::uint64_t version = 0;
  std::uint64_t window_index = 0;   // window that first scored with it
  std::uint64_t trigger_window = 0;
  bool drift_triggered = false;
};

class LifecycleManager {
 public:
  /// `initial_model` is version 1 and must outlive the manager.
  LifecycleManager(const Classifier& initial_model, std::size_t features,
                   LifecycleConfig config);

  /// Applies a swap scheduled for a window <= `window_index`, if any.
  /// Returns the new model, or nullptr when nothing lands here. Call
  /// before scoring the window.
  std::shared_ptr<const Classifier> maybe_swap(std::uint64_t window_index);

  /// Feeds one closed window's raw rows and truth labels; may trigger a
  /// retrain, which runs before this returns. Call after maybe_swap() for
  /// the same window.
  void observe_window(std::uint64_t window_index, const DesignMatrix& x,
                      const std::vector<int>& y);

  /// Currently-served model version (1 = the initial model).
  std::uint64_t version() const { return version_; }
  const Classifier& current_model() const {
    return current_ ? *current_ : *base_model_;
  }

  const std::vector<SwapRecord>& swaps() const { return swaps_; }
  const DriftDetector& drift() const { return drift_; }
  const ReplayBuffer& replay() const { return replay_; }

  struct Stats {
    std::uint64_t retrains_triggered = 0;
    std::uint64_t retrains_completed = 0;
    std::uint64_t retrain_noops = 0;
    std::uint64_t swaps_applied = 0;
    std::uint64_t drift_alarms = 0;
  };
  Stats stats() const;

  /// Copies lifecycle state into the global registry ("lifecycle.*");
  /// simulation-thread only.
  void publish_metrics() const;

 private:
  void trigger_retrain(std::uint64_t window_index, bool drift_triggered);

  LifecycleConfig config_;
  const Classifier* base_model_;
  DriftDetector drift_;
  ReplayBuffer replay_;
  util::Rng rng_;

  std::shared_ptr<const Classifier> current_;  // null until the first swap
  std::uint64_t version_ = 1;
  std::uint64_t next_version_ = 2;
  bool triggered_yet_ = false;
  std::uint64_t windows_since_trigger_ = 0;

  struct PendingSwap {
    std::uint64_t apply_window = 0;
    std::uint64_t version = 0;
    std::uint64_t trigger_window = 0;
    bool drift_triggered = false;
    /// The retrained model; null when incremental_update refused (the
    /// swap then counts as a no-op and the old model keeps serving).
    std::shared_ptr<const Classifier> model;
  };
  std::deque<PendingSwap> pending_;

  std::vector<SwapRecord> swaps_;
  std::uint64_t retrains_completed_ = 0;
  std::uint64_t retrain_noops_ = 0;
};

}  // namespace ddoshield::ml::lifecycle

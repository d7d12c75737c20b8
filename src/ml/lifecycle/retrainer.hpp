// Background model retraining off the simulation thread.
//
// The simulation thread submits RetrainJobs through a bounded SPSC ring;
// a single worker thread pops them in FIFO order, rebuilds the base model
// from its serialized bytes, applies Classifier::incremental_update under
// the job's forked Rng, and pushes the finished model back through a
// second SPSC ring.
//
// Determinism argument (DESIGN.md §14): the worker computes
//   clone = deserialize(model_bytes); clone->incremental_update(x, y, rng)
// — a pure function of the job contents, all of which are sim-domain data
// (the serialized model, the replay snapshot, a forked rng stream). The
// wall-clock moment the result lands changes nothing about its bytes, so
// the swap that later applies it is byte-identical across runs; the only
// blocking wait is LifecycleManager's collect() at the scheduled apply
// window, which costs wall time but zero sim time.
//
// Thread rules: submit/try_collect/collect are simulation-thread only;
// the worker touches nothing but the rings and its RelaxedCounters (the
// ml layer keeps train/load paths registry-free; predict_batch, the only
// instrumented ml entry point, is never called here).
#pragma once

#include <cstdint>
#include <memory>
#include <thread>

#include "ml/classifier.hpp"
#include "ml/design_matrix.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/spsc_ring.hpp"

namespace ddoshield::ml::lifecycle {

struct RetrainerConfig {
  /// Jobs in flight (ring slots). Retrains are rare (every N windows at
  /// most), so a full ring means the worker is severely behind; submit()
  /// then spin-yields rather than dropping.
  std::size_t ring_capacity = 4;
};

struct RetrainJob {
  std::uint64_t version = 0;         // version the finished model will carry
  std::uint64_t trigger_window = 0;  // window whose close requested the retrain
  std::vector<std::uint8_t> model_bytes;  // serialize_model() of the base model
  DesignMatrix x;                    // replay-buffer snapshot
  std::vector<int> y;
  util::Rng rng;                     // forked stream owned by this retrain
};

struct RetrainResult {
  std::uint64_t version = 0;
  std::uint64_t trigger_window = 0;
  /// False when the model has no incremental path (Classifier base
  /// refusal) — the manager counts a no-op and keeps serving the old one.
  bool updated = false;
  std::shared_ptr<const Classifier> model;
  std::uint64_t retrain_ns = 0;  // worker wall time (observability only)
};

class Retrainer {
 public:
  /// `deployment_reference` is the originally deployed model; finished
  /// clones adopt_deployment() from it so runtime knobs (the CNN int8
  /// switch) survive the serialize/deserialize round trip. Must outlive
  /// the retrainer.
  explicit Retrainer(const Classifier& deployment_reference, RetrainerConfig config = {});
  ~Retrainer();

  Retrainer(const Retrainer&) = delete;
  Retrainer& operator=(const Retrainer&) = delete;

  /// Hands one retrain to the worker; spin-waits (never drops) on a full
  /// ring. Simulation-thread only.
  void submit(RetrainJob job);

  /// Non-blocking: pops the oldest finished retrain, if any.
  bool try_collect(RetrainResult& out);

  /// Blocking: waits for the oldest outstanding retrain (wall-clock only;
  /// zero sim-time cost — see the determinism argument above).
  RetrainResult collect();

  std::size_t outstanding() const { return submitted_ - collected_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  // worker-side
    std::uint64_t noops = 0;      // worker-side: incremental_update refused
  };
  Stats stats() const;

 private:
  void worker_loop();

  const Classifier& reference_;
  RetrainerConfig config_;
  util::SpscRing<RetrainJob> jobs_;
  util::SpscRing<RetrainResult> results_;
  std::atomic<bool> stop_{false};

  // Simulation-thread state.
  std::uint64_t submitted_ = 0;
  std::uint64_t collected_ = 0;

  // Worker-thread state.
  obs::RelaxedCounter completed_;
  obs::RelaxedCounter noops_;

  std::thread worker_;  // last member: starts after everything it touches
};

}  // namespace ddoshield::ml::lifecycle

#include "ml/lifecycle/retrainer.hpp"

#include <chrono>
#include <deque>
#include <stdexcept>

#include "ml/model_store.hpp"

namespace ddoshield::ml::lifecycle {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

Retrainer::Retrainer(const Classifier& deployment_reference, RetrainerConfig config)
    : reference_{deployment_reference},
      config_{config},
      jobs_{config.ring_capacity},
      results_{config.ring_capacity},
      worker_{[this] { worker_loop(); }} {}

Retrainer::~Retrainer() {
  stop_.store(true, std::memory_order_release);
  worker_.join();
}

void Retrainer::submit(RetrainJob job) {
  if (!jobs_.try_push(std::move(job))) {
    // A failed try_push leaves the job untouched, so retrying the move is
    // safe.
    do {
      std::this_thread::yield();
    } while (!jobs_.try_push(std::move(job)));
  }
  ++submitted_;
}

bool Retrainer::try_collect(RetrainResult& out) {
  if (!results_.try_pop(out)) return false;
  ++collected_;
  return true;
}

RetrainResult Retrainer::collect() {
  if (outstanding() == 0) {
    throw std::logic_error("Retrainer::collect: no outstanding retrains");
  }
  RetrainResult out;
  while (!try_collect(out)) std::this_thread::yield();
  return out;
}

Retrainer::Stats Retrainer::stats() const {
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_.value();
  s.noops = noops_.value();
  return s;
}

void Retrainer::worker_loop() {
  RetrainJob job;
  // Never block the worker on a full results ring: finished results spill
  // to a local FIFO, so submit() can only ever wait on the jobs ring, which
  // this loop always empties.
  std::deque<RetrainResult> overflow;
  auto flush_overflow = [this, &overflow] {
    while (!overflow.empty() && results_.try_push(std::move(overflow.front()))) {
      overflow.pop_front();
    }
  };
  while (true) {
    flush_overflow();
    if (!jobs_.try_pop(job)) {
      if (stop_.load(std::memory_order_acquire)) {
        if (!jobs_.try_pop(job)) {
          flush_overflow();
          return;
        }
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    const std::uint64_t t0 = now_ns();
    RetrainResult res;
    res.version = job.version;
    res.trigger_window = job.trigger_window;
    std::unique_ptr<Classifier> clone = deserialize_model(job.model_bytes);
    // Adopt BEFORE updating: serialization carries only parameters, so the
    // clone's retrain hyperparameters (CNN fine-tune epochs, RF refresh
    // fraction, ...) reset to defaults on load. Copying the deployment's
    // knobs first makes the update run under the deployed configuration.
    clone->adopt_deployment(reference_);
    res.updated = clone->incremental_update(job.x, job.y, job.rng);
    if (res.updated) {
      res.model = std::shared_ptr<const Classifier>{std::move(clone)};
    } else {
      noops_.inc();
    }
    res.retrain_ns = now_ns() - t0;
    completed_.inc();
    if (!overflow.empty() || !results_.try_push(std::move(res))) {
      overflow.push_back(std::move(res));
    }
  }
}

}  // namespace ddoshield::ml::lifecycle

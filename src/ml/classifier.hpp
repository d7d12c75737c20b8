// Abstract classifier interface implemented by RandomForest, KMeansDetector,
// and Cnn1D. Mirrors the role scikit-learn / TensorFlow models play in the
// paper's IDS: fit on a labelled matrix, predict per row, persist to a
// model file (the paper's PKL), and report the resource figures Table II
// needs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/design_matrix.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {

class StandardScaler;

/// One 0/1 verdict per design-matrix row, in row order.
using Verdicts = std::vector<int>;

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Stable identifier used in reports and model files ("rf", "kmeans",
  /// "cnn").
  virtual std::string name() const = 0;

  /// Trains on (X, y). Models fit their internal StandardScaler here, so
  /// callers always pass raw (unscaled) features.
  virtual void fit(const DesignMatrix& x, const std::vector<int>& y) = 0;

  /// Predicts the class (0 benign / 1 malicious) of one raw feature row.
  virtual int predict(std::span<const double> row) const = 0;

  /// Scores every row of x into out (resized to x.rows()).
  ///
  /// The three paper models override this with cache-blocked kernels that
  /// are bit-identical to calling predict() per row: every floating-point
  /// reduction keeps the scalar path's accumulation order, only the loop
  /// structure (and the per-row allocations) change. predict() stays the
  /// public oracle the batched kernels are tested against.
  ///
  /// Thread contract: const, allocation-bounded, and registry-free, so a
  /// sharded run's window close may call it on shard 0's thread, not the
  /// thread that trained or loaded the model, while the model stays
  /// immutable. The obs-instrumented entry point is predict_batch(), which
  /// must stay on the simulation thread.
  virtual void score_batch(const DesignMatrix& x, Verdicts& out) const;

  std::vector<int> predict_batch(const DesignMatrix& x) const;

  /// Incremental in-place refresh from a labelled replay batch — what a
  /// lifecycle retrain runs (DESIGN.md §14). Each model defines
  /// its own cheap update: RF replaces a subset of trees, K-Means re-runs
  /// Lloyd from the current centroids, the CNN fine-tunes for a few
  /// epochs. The update must be a pure function of (current parameters,
  /// x, y, rng) so a retrain replays bit-identically from a serialized
  /// clone. Returns false (and changes nothing) when the model has no
  /// incremental path or the batch is unusable; the base implementation
  /// always refuses.
  virtual bool incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                                  util::Rng& rng);

  /// Copies runtime deployment knobs (e.g. the CNN's int8 inference
  /// switch) from `reference` onto this model. Serialization carries only
  /// parameters, so a lifecycle retrain calls this on a freshly
  /// deserialized clone to make it serve in the same mode as the model it
  /// replaces. Base implementation: no knobs, no-op.
  virtual void adopt_deployment(const Classifier& reference);

  /// The scaler this model applies at serve time, or nullptr for models
  /// that consume raw features (RandomForest). The lifecycle drift
  /// detector seeds its reference distribution from it — the same
  /// (mean, stddev) the FNV fingerprint skew guard stamps.
  virtual const StandardScaler* serving_scaler() const { return nullptr; }

  virtual bool trained() const = 0;

  // --- persistence (the PKL role) ------------------------------------------
  virtual void save(util::ByteWriter& w) const = 0;
  virtual void load(util::ByteReader& r) = 0;

  // --- resource reporting (Table II) ---------------------------------------
  /// Bytes of model parameters resident during inference.
  virtual std::uint64_t parameter_bytes() const = 0;
  /// Bytes of scratch memory one predict() call touches.
  virtual std::uint64_t inference_scratch_bytes() const = 0;

};

}  // namespace ddoshield::ml

// Unsupervised K-Means detector with entropy-penalised cluster-count
// selection (Sinaga & Yang's "Unsupervised K-Means", the paper's ref [31]).
//
// Training starts from a generous number of clusters seeded k-means++ style
// and alternates assignment / centroid / mixing-proportion updates. The
// objective carries an entropy penalty on the mixing proportions, so
// under-populated clusters lose mass and are discarded — the algorithm
// finds its own k. Labels never influence clustering; they are used only
// afterwards to give each surviving cluster a majority-class tag so the
// detector can answer benign/malicious (exactly how an unsupervised model
// is wired into a supervised IDS evaluation).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/preprocess.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {

struct KMeansConfig {
  /// Generous starting count: traffic regimes are plentiful (three benign
  /// protocols x quiet/busy, three attack vectors x intensities), and the
  /// entropy penalty prunes what the data cannot support.
  std::size_t initial_clusters = 40;
  std::size_t max_iterations = 50;
  double tolerance = 1e-4;       // centroid-shift convergence threshold
  double entropy_weight = 0.01;  // penalty strength on mixing proportions
  double min_proportion = 0.003; // clusters below this mass are dropped
  /// Training subsample bound (k-means is O(n·k·d) per iteration).
  std::size_t max_training_rows = 60000;
  /// Lloyd iterations per incremental_update() (lifecycle retrain).
  std::size_t refresh_iterations = 5;
  std::uint64_t seed = 4242;
};

class KMeansDetector : public Classifier {
 public:
  explicit KMeansDetector(KMeansConfig config = {});

  std::string name() const override { return "kmeans"; }
  void fit(const DesignMatrix& x, const std::vector<int>& y) override;
  int predict(std::span<const double> row) const override;
  /// Batched kernel: the block kernel of ml/kmeans_kernel.hpp (AVX2 where
  /// the CPU has it, else the portable one) finds every row's nearest
  /// centroid over the contiguous hoisted centroid array, and the argmins
  /// map through the cluster labels. Each (row, centroid) distance keeps
  /// the scalar path's dimension-ascending accumulation — a norm-factorised
  /// ‖x‖²−2x·c+‖c‖² formulation was rejected because its different
  /// rounding can flip near-tie argmins — so verdicts are bit-identical to
  /// predict().
  void score_batch(const DesignMatrix& x, Verdicts& out) const override;
  /// Lifecycle retrain: a few plain Lloyd iterations from the *current*
  /// centroids over the replay batch, then a majority-class relabel.
  /// The serving scaler is deliberately frozen — refitting it would
  /// invalidate the train/serve fingerprint skew guard — so drift shows
  /// up as centroid motion in the fixed scaled space.
  bool incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                          util::Rng& rng) override;
  /// Copies the retrain hyperparameters (refresh iterations, subsample
  /// bound) from another KMeansDetector — serialization carries only the
  /// centroids, so a deserialized clone resets them to defaults.
  void adopt_deployment(const Classifier& reference) override;
  bool trained() const override { return !centroids_.empty(); }

  void save(util::ByteWriter& w) const override;
  void load(util::ByteReader& r) override;

  std::uint64_t parameter_bytes() const override;
  std::uint64_t inference_scratch_bytes() const override;

  std::size_t cluster_count() const { return centroids_.size(); }
  const std::vector<int>& cluster_labels() const { return cluster_labels_; }
  const StandardScaler* serving_scaler() const override {
    return scaler_.fitted() ? &scaler_ : nullptr;
  }

 private:
  std::size_t nearest_cluster(std::span<const double> scaled_row) const;
  /// Packs centroids_ into one contiguous (k × dims) array — the batched
  /// kernel's layout — after fit() and load().
  void rebuild_flat();

  KMeansConfig config_;
  StandardScaler scaler_;
  std::vector<std::vector<double>> centroids_;
  std::vector<double> centroid_flat_;  // k × dims, row-major
  std::vector<double> proportions_;
  std::vector<int> cluster_labels_;  // majority class per cluster
};

}  // namespace ddoshield::ml

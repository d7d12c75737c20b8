// Random Forest classifier: bagged CART trees with per-split feature
// subsampling and majority voting (§III-B of the paper, scikit-learn's
// RandomForestClassifier role).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {

struct RandomForestConfig {
  /// Defaults mirror scikit-learn's RandomForestClassifier (the paper's
  /// implementation): 100 fully-grown trees (no depth limit, leaves down
  /// to single samples) with sqrt(n_features) feature subsampling.
  std::size_t n_estimators = 100;
  TreeConfig tree{.max_depth = 64, .min_samples_split = 2, .min_samples_leaf = 1,
                  .features_per_split = 4};  // ~sqrt(17)
  /// Bootstrap sample size per tree, capped to bound training cost on
  /// multi-hundred-thousand-row datasets; 0 = full dataset size.
  std::size_t max_samples_per_tree = 3500;
  /// Fraction of trees replaced per incremental_update() (lifecycle
  /// retrain); at least one tree is always replaced.
  double refresh_fraction = 0.25;
  std::uint64_t seed = 1337;
};

class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {});

  std::string name() const override { return "rf"; }
  void fit(const DesignMatrix& x, const std::vector<int>& y) override;
  int predict(std::span<const double> row) const override;
  /// Batched kernel over a flattened whole-forest node layout (SoA arrays,
  /// leaves as self-loops), walked row-block by row-block with a cmov
  /// select per hop — no virtual dispatch per tree, no pointer chase into
  /// per-tree vectors. Bit-identical to predict() per row.
  void score_batch(const DesignMatrix& x, Verdicts& out) const override;
  /// Lifecycle retrain: replaces a deterministic rng-chosen subset of
  /// trees (refresh_fraction of the forest) with trees grown on bootstrap
  /// samples of the replay batch, then rebuilds the flat kernel layout.
  bool incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                          util::Rng& rng) override;
  /// Copies the retrain hyperparameters (tree shape, bootstrap bound,
  /// refresh fraction) from another RandomForest — serialization carries
  /// only the trees, so a deserialized clone resets them to defaults.
  void adopt_deployment(const Classifier& reference) override;
  bool trained() const override { return !trees_.empty(); }

  void save(util::ByteWriter& w) const override;
  void load(util::ByteReader& r) override;

  std::uint64_t parameter_bytes() const override;
  std::uint64_t inference_scratch_bytes() const override;

  std::size_t tree_count() const { return trees_.size(); }
  const RandomForestConfig& config() const { return config_; }

 private:
  /// Whole-forest SoA node arrays for the batched kernel, rebuilt after
  /// fit() and load() (inference-only; serialization stays tree-shaped).
  struct FlatForest {
    std::vector<std::int32_t> feature;  // -1 marks a leaf
    std::vector<double> threshold;
    std::vector<std::int32_t> left, right;  // absolute; self-loop at leaves
    std::vector<std::int32_t> leaf_class;
    std::vector<std::int32_t> roots;  // one per tree
    void clear();
  };

  void rebuild_flat();

  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  FlatForest flat_;
  int num_classes_ = 2;
};

}  // namespace ddoshield::ml

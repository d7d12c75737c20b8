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
  /// Throws std::invalid_argument when a split reads a feature at or past
  /// the row's end (score_batch likewise for the matrix width).
  int predict(std::span<const double> row) const override;
  /// Level-synchronous kernel over the packed forest (DESIGN.md §10):
  /// rows run in balanced blocks of at most 128, each block as lanes, one
  /// per (row, tree), in groups of at most 256. Every pass steps each
  /// live lane one level and drops the lanes that reached a leaf, so no
  /// lane waits on a deeper one. Bit-identical to predict() per row.
  void score_batch(const DesignMatrix& x, Verdicts& out) const override;
  /// Lifecycle retrain: replaces a deterministic rng-chosen subset of
  /// trees (refresh_fraction of the forest) with trees grown on bootstrap
  /// samples of the replay batch, then rebuilds the packed layout.
  bool incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                          util::Rng& rng) override;
  /// Copies the retrain hyperparameters (tree shape, bootstrap bound,
  /// refresh fraction) from another RandomForest — serialization carries
  /// only the trees, so a deserialized clone resets them to defaults.
  void adopt_deployment(const Classifier& reference) override;
  bool trained() const override { return !trees_.empty(); }

  void save(util::ByteWriter& w) const override;
  /// Throws std::out_of_range when the tree count exceeds what the
  /// remaining bytes can hold, and std::invalid_argument for an empty tree
  /// or one DecisionTree::load rejects.
  void load(util::ByteReader& r) override;

  std::uint64_t parameter_bytes() const override;
  std::uint64_t inference_scratch_bytes() const override;

  std::size_t tree_count() const { return trees_.size(); }
  const RandomForestConfig& config() const { return config_; }

 private:
  using PackedNode = DecisionTree::PackedNode;

  /// Rebuilds the packed layout from trees_; run after fit(), load() and
  /// incremental_update() (serialization stays tree-shaped).
  void rebuild_packed();

  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  // Every tree's nodes, breadth-first (DecisionTree::pack_append), and
  // the class of the node in each slot, read once a walk has ended.
  std::vector<PackedNode> packed_;
  std::vector<std::int32_t> leaf_class_;
  std::vector<std::int32_t> roots_;  // one slot per tree
  // Columns a row must have: one past the largest feature a split reads.
  std::size_t min_cols_ = 0;
  int num_classes_ = 2;
};

}  // namespace ddoshield::ml

// CART decision tree (gini impurity), the Random Forest base learner.
//
// Supports per-node feature subsampling (the "random" in Random Forest)
// and the usual depth / minimum-samples regularisers. Trees store nodes in
// a flat vector, which keeps serialization trivial and inference cache-
// friendly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/design_matrix.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {

struct TreeConfig {
  std::size_t max_depth = 12;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Features examined per split; 0 means all features.
  std::size_t features_per_split = 0;
};

class DecisionTree {
 public:
  /// Trains on the rows of x selected by `indices` (the caller's bootstrap
  /// sample). `num_classes` fixes the label alphabet.
  void fit(const DesignMatrix& x, std::span<const int> y, std::span<const std::size_t> indices,
           int num_classes, const TreeConfig& config, util::Rng& rng);

  int predict(std::span<const double> row) const;

  bool trained() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const { return depth_; }

  void save(util::ByteWriter& w) const;
  /// Throws std::out_of_range when the node count exceeds what the
  /// remaining bytes can hold (before allocating), and
  /// std::invalid_argument when an internal node links to a child out of
  /// range, at or before itself, or already linked from another parent:
  /// the links must form a tree that predict() walks downward and
  /// pack_append() lays out breadth-first.
  void load(util::ByteReader& r);

  /// Bytes used by the node array.
  std::uint64_t byte_size() const;

  /// One node of RandomForest's packed scoring layout: 16 bytes, one
  /// cache line holds four. An internal node's children sit side by side
  /// at `child` (taken on `x <= threshold`) and `child + 1`, so a hop is
  /// `next = child + !(x <= threshold)`. A leaf steps to itself: NaN
  /// threshold (every comparison is false), feature 0, child = its own
  /// slot - 1. Its class is kept apart from the node, in the caller's
  /// leaf_class array.
  struct PackedNode {
    double threshold;
    std::int32_t feature;
    std::int32_t child;
  };

  /// Appends this tree's reachable nodes to `nodes` in breadth-first
  /// order, rooted at the slot `nodes.size()` had on entry, and each
  /// node's class to `leaf_class` at the same slot. Nodes predict()
  /// treats as leaves (feature, left or right negative) become
  /// self-stepping leaves. Returns the largest feature index an internal
  /// node reads, or -1 when every reachable node is a leaf.
  std::int32_t pack_append(std::vector<PackedNode>& nodes,
                           std::vector<std::int32_t>& leaf_class) const;

 private:
  struct Node {
    // Internal node: feature >= 0, children set. Leaf: feature == -1,
    // leaf_class holds the majority class.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t leaf_class = 0;
  };

  std::int32_t build(const DesignMatrix& x, std::span<const int> y,
                     std::vector<std::size_t>& indices, std::size_t begin, std::size_t end,
                     std::size_t depth, const TreeConfig& config, util::Rng& rng);

  std::vector<Node> nodes_;
  int num_classes_ = 2;
  std::size_t depth_ = 0;
};

}  // namespace ddoshield::ml

// A Random Forest model written field by field in RandomForest::save's
// format, so a test can hand-build trees the trainer never grows (a leaf
// root, a split exactly on a value, classes past the 16-slot vote array)
// or make one field disagree with the rest.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "util/byte_buffer.hpp"

namespace ddoshield::test_oracle {

/// One DecisionTree node as it is saved. predict() treats a node whose
/// feature, left or right is negative as a leaf.
struct RfNode {
  std::int32_t feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t leaf_class = 0;
};

inline RfNode rf_leaf(std::int32_t cls) { return RfNode{.leaf_class = cls}; }

inline RfNode rf_split(std::int32_t feature, double threshold, std::int32_t left,
                       std::int32_t right) {
  return RfNode{.feature = feature, .threshold = threshold, .left = left, .right = right};
}

struct RfModelFile {
  RfModelFile(std::initializer_list<std::vector<RfNode>> t) : trees{t} {}

  std::vector<std::vector<RfNode>> trees;
  /// Written in place of the true counts when set: a hostile length
  /// prefix. `node_count` applies to the first tree.
  std::optional<std::uint64_t> tree_count;
  std::optional<std::uint64_t> node_count;

  std::vector<std::uint8_t> bytes() const {
    util::ByteWriter w;
    w.put_u32(2);  // classes
    w.put_u64(tree_count.value_or(trees.size()));
    for (std::size_t t = 0; t < trees.size(); ++t) {
      w.put_u32(2);  // classes
      w.put_u64(1);  // depth (reported only)
      w.put_u64(t == 0 && node_count ? *node_count : trees[t].size());
      for (const RfNode& n : trees[t]) {
        w.put_u32(static_cast<std::uint32_t>(n.feature));
        w.put_f64(n.threshold);
        w.put_u32(static_cast<std::uint32_t>(n.left));
        w.put_u32(static_cast<std::uint32_t>(n.right));
        w.put_u32(static_cast<std::uint32_t>(n.leaf_class));
      }
    }
    return w.take();
  }
};

}  // namespace ddoshield::test_oracle

#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace ddoshield::ml {

namespace {

double gini(std::span<const std::size_t> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double g = 1.0;
  for (const std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

}  // namespace

void DecisionTree::fit(const DesignMatrix& x, std::span<const int> y,
                       std::span<const std::size_t> indices, int num_classes,
                       const TreeConfig& config, util::Rng& rng) {
  if (x.rows() != y.size()) throw std::invalid_argument("DecisionTree::fit: X/y mismatch");
  if (indices.empty()) throw std::invalid_argument("DecisionTree::fit: empty sample");
  if (num_classes < 2) throw std::invalid_argument("DecisionTree::fit: need >= 2 classes");
  nodes_.clear();
  depth_ = 0;
  num_classes_ = num_classes;
  std::vector<std::size_t> work{indices.begin(), indices.end()};
  build(x, y, work, 0, work.size(), 0, config, rng);
}

std::int32_t DecisionTree::build(const DesignMatrix& x, std::span<const int> y,
                                 std::vector<std::size_t>& indices, std::size_t begin,
                                 std::size_t end, std::size_t depth, const TreeConfig& config,
                                 util::Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = end - begin;

  // Class histogram of this node's samples.
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (std::size_t k = begin; k < end; ++k) ++counts[static_cast<std::size_t>(y[indices[k]])];
  const auto majority = static_cast<std::int32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  auto make_leaf = [&]() {
    Node leaf;
    leaf.leaf_class = majority;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const double node_gini = gini(counts, n);
  if (depth >= config.max_depth || n < config.min_samples_split || node_gini == 0.0) {
    return make_leaf();
  }

  // Choose candidate features (without replacement).
  std::vector<std::size_t> features(x.cols());
  for (std::size_t f = 0; f < features.size(); ++f) features[f] = f;
  std::size_t feature_budget = config.features_per_split == 0
                                   ? features.size()
                                   : std::min(config.features_per_split, features.size());
  rng.shuffle(features);
  features.resize(feature_budget);

  double best_gain = 1e-12;  // require strictly positive gain
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, int>> values;
  values.reserve(n);
  std::vector<std::size_t> left_counts(static_cast<std::size_t>(num_classes_));

  for (const std::size_t f : features) {
    values.clear();
    for (std::size_t k = begin; k < end; ++k) {
      values.emplace_back(x.at(indices[k], f), y[indices[k]]);
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;  // constant feature here

    std::fill(left_counts.begin(), left_counts.end(), 0);
    // Sweep split positions; a threshold between distinct adjacent values.
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
      ++left_counts[static_cast<std::size_t>(values[i].second)];
      if (values[i].first == values[i + 1].first) continue;
      const std::size_t n_left = i + 1;
      const std::size_t n_right = n - n_left;
      if (n_left < config.min_samples_leaf || n_right < config.min_samples_leaf) continue;

      double right_gini_sum = 0.0;
      {
        double g = 1.0;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          const double p =
              static_cast<double>(counts[c] - left_counts[c]) / static_cast<double>(n_right);
          g -= p * p;
        }
        right_gini_sum = g;
      }
      const double left_gini = gini(left_counts, n_left);
      const double weighted = (static_cast<double>(n_left) * left_gini +
                               static_cast<double>(n_right) * right_gini_sum) /
                              static_cast<double>(n);
      const double gain = node_gini - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<std::int32_t>(f);
        best_threshold = 0.5 * (values[i].first + values[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition indices around the threshold.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t idx) {
        return x.at(idx, static_cast<std::size_t>(best_feature)) <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();  // degenerate split

  Node node;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.leaf_class = majority;
  nodes_.push_back(node);
  const auto me = static_cast<std::int32_t>(nodes_.size() - 1);

  const std::int32_t left = build(x, y, indices, begin, mid, depth + 1, config, rng);
  const std::int32_t right = build(x, y, indices, mid, end, depth + 1, config, rng);
  nodes_[static_cast<std::size_t>(me)].left = left;
  nodes_[static_cast<std::size_t>(me)].right = right;
  return me;
}

int DecisionTree::predict(std::span<const double> row) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::predict: not trained");
  std::int32_t i = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (node.feature < 0 || node.left < 0 || node.right < 0) return node.leaf_class;
    i = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left : node.right;
  }
}

void DecisionTree::save(util::ByteWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(num_classes_));
  w.put_u64(depth_);
  w.put_u64(nodes_.size());
  for (const Node& n : nodes_) {
    w.put_u32(static_cast<std::uint32_t>(n.feature));
    w.put_f64(n.threshold);
    w.put_u32(static_cast<std::uint32_t>(n.left));
    w.put_u32(static_cast<std::uint32_t>(n.right));
    w.put_u32(static_cast<std::uint32_t>(n.leaf_class));
  }
}

void DecisionTree::load(util::ByteReader& r) {
  // feature, threshold, left, right, leaf_class: what save() writes per node.
  constexpr std::size_t kNodeBytes = 4 * sizeof(std::uint32_t) + sizeof(double);
  num_classes_ = static_cast<int>(r.get_u32());
  depth_ = r.get_u64();
  const std::uint64_t count = r.get_u64();
  if (count > r.remaining() / kNodeBytes) {
    throw std::out_of_range("DecisionTree::load: node count exceeds the input");
  }
  nodes_.clear();
  nodes_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Node n;
    n.feature = static_cast<std::int32_t>(r.get_u32());
    n.threshold = r.get_f64();
    n.left = static_cast<std::int32_t>(r.get_u32());
    n.right = static_cast<std::int32_t>(r.get_u32());
    n.leaf_class = static_cast<std::int32_t>(r.get_u32());
    nodes_.push_back(n);
  }

  // Every link predict() can follow points forward to a node no other
  // link reaches, so each walk ends and the nodes form a tree.
  std::vector<bool> linked(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.feature < 0 || n.left < 0 || n.right < 0) continue;  // a leaf
    for (const std::int32_t child : {n.left, n.right}) {
      const auto c = static_cast<std::size_t>(child);
      if (c <= i || c >= nodes_.size() || linked[c]) {
        nodes_.clear();
        throw std::invalid_argument("DecisionTree::load: child link " + std::to_string(child) +
                                    " of node " + std::to_string(i) + " is not a tree edge");
      }
      linked[c] = true;
    }
  }
}

std::uint64_t DecisionTree::byte_size() const { return nodes_.size() * sizeof(Node); }

std::int32_t DecisionTree::pack_append(std::vector<PackedNode>& nodes,
                                       std::vector<std::int32_t>& leaf_class) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree::pack_append: not trained");
  const std::size_t base = nodes.size();
  // order[k] is the tree node that lands in slot base + k; a node's
  // children are appended as a pair when it is placed, so they are
  // adjacent and breadth-first. load() guarantees the links form a tree.
  std::vector<std::int32_t> order{0};
  std::int32_t max_feature = -1;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Node& n = nodes_[static_cast<std::size_t>(order[k])];
    const auto slot = static_cast<std::int32_t>(base + k);
    if (n.feature < 0 || n.left < 0 || n.right < 0) {
      nodes.push_back({std::numeric_limits<double>::quiet_NaN(), 0, slot - 1});
    } else {
      nodes.push_back({n.threshold, n.feature, static_cast<std::int32_t>(base + order.size())});
      order.push_back(n.left);
      order.push_back(n.right);
      max_feature = std::max(max_feature, n.feature);
    }
    leaf_class.push_back(n.leaf_class);
  }
  return max_feature;
}

}  // namespace ddoshield::ml

#include "ml/random_forest.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ddoshield::ml {

RandomForest::RandomForest(RandomForestConfig config) : config_{config} {
  if (config_.n_estimators == 0) {
    throw std::invalid_argument("RandomForest: n_estimators must be > 0");
  }
}

void RandomForest::fit(const DesignMatrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("RandomForest::fit: X/y mismatch");
  if (x.empty()) throw std::invalid_argument("RandomForest::fit: empty dataset");

  num_classes_ = 1 + *std::max_element(y.begin(), y.end());
  num_classes_ = std::max(num_classes_, 2);

  util::Rng rng{config_.seed};
  const std::size_t sample_size =
      config_.max_samples_per_tree == 0
          ? x.rows()
          : std::min(config_.max_samples_per_tree, x.rows());

  trees_.clear();
  trees_.resize(config_.n_estimators);
  std::vector<std::size_t> bootstrap(sample_size);
  for (std::size_t t = 0; t < config_.n_estimators; ++t) {
    util::Rng tree_rng = rng.fork("tree-" + std::to_string(t));
    for (auto& idx : bootstrap) idx = tree_rng.uniform_u64(x.rows());  // with replacement
    trees_[t].fit(x, y, bootstrap, num_classes_, config_.tree, tree_rng);
  }
  rebuild_flat();
}

bool RandomForest::incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                                      util::Rng& rng) {
  if (trees_.empty() || x.empty() || x.rows() != y.size()) return false;

  // Replay labels may introduce a class the original fit never saw.
  int classes = num_classes_;
  for (const int c : y) classes = std::max(classes, c + 1);
  num_classes_ = classes;

  const std::size_t sample_size =
      config_.max_samples_per_tree == 0
          ? x.rows()
          : std::min(config_.max_samples_per_tree, x.rows());
  const auto replace = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.refresh_fraction *
                                  static_cast<double>(trees_.size())));

  std::vector<std::size_t> bootstrap(sample_size);
  for (std::size_t i = 0; i < replace; ++i) {
    // Slot choice and tree growth both come from the caller's stream, so
    // the whole refresh is a pure function of (forest, x, y, rng state).
    const std::size_t slot = rng.uniform_u64(trees_.size());
    util::Rng tree_rng = rng.fork_stream("refresh-tree", i);
    for (auto& idx : bootstrap) idx = tree_rng.uniform_u64(x.rows());
    trees_[slot].fit(x, y, bootstrap, num_classes_, config_.tree, tree_rng);
  }
  rebuild_flat();
  return true;
}

void RandomForest::adopt_deployment(const Classifier& reference) {
  if (const auto* rf = dynamic_cast<const RandomForest*>(&reference)) {
    // Config only steers fit/refresh — the serialized trees already embed
    // the shape they were grown with — so a wholesale copy is safe.
    config_ = rf->config_;
  }
}

void RandomForest::FlatForest::clear() {
  feature.clear();
  threshold.clear();
  left.clear();
  right.clear();
  leaf_class.clear();
  roots.clear();
}

void RandomForest::rebuild_flat() {
  flat_.clear();
  flat_.roots.reserve(trees_.size());
  for (const DecisionTree& tree : trees_) {
    flat_.roots.push_back(tree.flatten_append(flat_.feature, flat_.threshold, flat_.left,
                                              flat_.right, flat_.leaf_class));
  }
}

int RandomForest::predict(std::span<const double> row) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::predict: not trained");
  // Majority vote over trees.
  std::array<std::uint32_t, 16> votes{};  // num_classes_ is small
  for (const auto& tree : trees_) {
    const int c = tree.predict(row);
    ++votes[static_cast<std::size_t>(c) % votes.size()];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) - votes.begin());
}

void RandomForest::score_batch(const DesignMatrix& x, Verdicts& out) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::score_batch: not trained");
  const std::size_t n = x.rows();
  const std::size_t cols = x.cols();
  const double* data = x.data().data();
  out.assign(n, 0);

  // Same 16-slot vote layout (and the same index wrap) as the scalar
  // predict(), so argmax tie-breaking is identical by construction.
  constexpr std::size_t kVoteSlots = 16;
  constexpr std::size_t kRowBlock = 64;  // rows resident in L1 per pass
  std::array<std::uint32_t, kVoteSlots * kRowBlock> votes;

  const std::int32_t* feature = flat_.feature.data();
  const double* threshold = flat_.threshold.data();
  const std::int32_t* left = flat_.left.data();
  const std::int32_t* right = flat_.right.data();
  const std::int32_t* leaf_class = flat_.leaf_class.data();

  for (std::size_t base = 0; base < n; base += kRowBlock) {
    const std::size_t bn = std::min(kRowBlock, n - base);
    votes.fill(0);
    for (const std::int32_t root : flat_.roots) {
      // Tree-inner over a row block: the (shared) upper nodes of the tree
      // stay hot across the block's rows. (A lockstep multi-row descent
      // was tried here and measured slower: fully-grown trees have long
      // depth tails, so every lane pays the deepest lane's walk.)
      for (std::size_t r = 0; r < bn; ++r) {
        const double* row = data + (base + r) * cols;
        std::int32_t i = root;
        std::int32_t f = feature[static_cast<std::size_t>(i)];
        while (f >= 0) {
          const auto idx = static_cast<std::size_t>(i);
          // Compare + select compiles to a cmov: no mispredicted branch
          // per hop, unlike the scalar walker's per-node field tests.
          i = row[static_cast<std::size_t>(f)] <= threshold[idx] ? left[idx] : right[idx];
          f = feature[static_cast<std::size_t>(i)];
        }
        const auto c = static_cast<std::size_t>(leaf_class[static_cast<std::size_t>(i)]);
        ++votes[r * kVoteSlots + c % kVoteSlots];
      }
    }
    for (std::size_t r = 0; r < bn; ++r) {
      const std::uint32_t* v = &votes[r * kVoteSlots];
      out[base + r] = static_cast<int>(std::max_element(v, v + kVoteSlots) - v);
    }
  }
}

void RandomForest::save(util::ByteWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(num_classes_));
  w.put_u64(trees_.size());
  for (const auto& tree : trees_) tree.save(w);
}

void RandomForest::load(util::ByteReader& r) {
  num_classes_ = static_cast<int>(r.get_u32());
  const std::uint64_t count = r.get_u64();
  trees_.assign(count, DecisionTree{});
  for (auto& tree : trees_) tree.load(r);
  rebuild_flat();
}

std::uint64_t RandomForest::parameter_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& tree : trees_) bytes += tree.byte_size();
  return bytes;
}

std::uint64_t RandomForest::inference_scratch_bytes() const {
  // Vote counters plus a pointer-chase per tree; effectively constant.
  return 16 * sizeof(std::uint32_t) + trees_.size() * sizeof(void*);
}

}  // namespace ddoshield::ml

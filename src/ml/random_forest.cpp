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
  rebuild_packed();
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
  rebuild_packed();
  return true;
}

void RandomForest::adopt_deployment(const Classifier& reference) {
  if (const auto* rf = dynamic_cast<const RandomForest*>(&reference)) {
    // Config only steers fit/refresh — the serialized trees already embed
    // the shape they were grown with — so a wholesale copy is safe.
    config_ = rf->config_;
  }
}

void RandomForest::rebuild_packed() {
  packed_.clear();
  leaf_class_.clear();
  roots_.clear();
  roots_.reserve(trees_.size());
  std::int32_t max_feature = -1;
  for (const DecisionTree& tree : trees_) {
    roots_.push_back(static_cast<std::int32_t>(packed_.size()));
    max_feature = std::max(max_feature, tree.pack_append(packed_, leaf_class_));
  }
  min_cols_ = max_feature < 0 ? 0 : static_cast<std::size_t>(max_feature) + 1;
}

int RandomForest::predict(std::span<const double> row) const {
  if (trees_.empty()) throw std::logic_error("RandomForest::predict: not trained");
  if (row.size() < min_cols_) {
    throw std::invalid_argument("RandomForest::predict: row narrower than the forest's features");
  }
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
  out.assign(n, 0);
  if (n == 0) return;
  if (cols < min_cols_) {
    throw std::invalid_argument(
        "RandomForest::score_batch: matrix narrower than the forest's features");
  }

  // Same 16-slot vote layout (and the same index wrap) as predict(), so
  // argmax tie-breaking is identical by construction.
  constexpr std::size_t kVoteSlots = 16;
  // At most 128 rows per block and 256 lanes per group: two trees per
  // group for a full block, every tree at once for a lone row. The lane
  // arrays (~7 kB) and a block's votes (8 kB) stay in L1.
  constexpr std::size_t kBlockRows = 128;
  constexpr std::size_t kGroupLanes = 256;
  struct Lane {
    std::int32_t slot;  // the node the lane stands at
    std::int32_t lane;
  };
  std::array<std::uint32_t, kVoteSlots * kBlockRows> votes;
  std::array<const double*, kGroupLanes> lane_row;  // lane -> its row
  std::array<std::int32_t, kGroupLanes> at;         // lane -> its node, its leaf at the end
  // The live lanes, read from one array and appended to the other. An
  // in-place append ran testbed-1k's windows at half the speed, most
  // likely because each lane's load from the array waited on the
  // previous lane's store, whose address depends on that lane's walk.
  std::array<Lane, kGroupLanes> live_a, live_b;

  const PackedNode* nodes = packed_.data();
  const double* data = x.data().data();
  const std::size_t trees = roots_.size();
  // A slot is internal iff its child pair lies after it; a leaf's child
  // is its own slot - 1.
  const auto internal = [nodes](std::int32_t slot) {
    return nodes[static_cast<std::size_t>(slot)].child > slot;
  };

  // Balanced blocks: n spread evenly over ceil(n / 128) blocks, so a
  // batch one row past a block boundary does not leave a lone-row block.
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * n / blocks;
    const std::size_t bn = (b + 1) * n / blocks - base;
    const std::size_t group = std::clamp<std::size_t>(kGroupLanes / bn, 1, trees);
    // Lanes run tree-major (lane = tree-in-group * bn + row), so the
    // lane -> row map is the same for every group of this block.
    for (std::size_t r = 0; r < bn; ++r) lane_row[r] = data + (base + r) * cols;
    for (std::size_t lane = bn; lane < group * bn; ++lane) lane_row[lane] = lane_row[lane - bn];
    std::fill_n(votes.begin(), bn * kVoteSlots, 0u);

    for (std::size_t t0 = 0; t0 < trees; t0 += group) {
      const std::size_t lanes = std::min(group, trees - t0) * bn;
      Lane* live = live_a.data();
      Lane* next_live = live_b.data();
      std::size_t alive = 0;
      // Init pass: each lane's first two hops. The root's record and its
      // children's are copied out once per tree (a leaf root stands in
      // for its own children), and the root comparison indexes the copy;
      // indexing the children in the node array measured 2-3% slower.
      // The append is branch-free: every lane is written, and the count
      // advances only for a lane still at an internal node.
      for (std::size_t lane = 0, t = t0; lane < lanes; lane += bn, ++t) {
        const std::int32_t root_slot = roots_[t];
        const PackedNode root = nodes[static_cast<std::size_t>(root_slot)];
        std::array<PackedNode, 2> kids{root, root};
        if (root.child > root_slot) {
          kids = {nodes[static_cast<std::size_t>(root.child)],
                  nodes[static_cast<std::size_t>(root.child) + 1]};
        }
        for (std::size_t l = lane; l < lane + bn; ++l) {
          const double* row = lane_row[l];
          const PackedNode& kid = kids[!(row[root.feature] <= root.threshold)];
          const std::int32_t slot = kid.child + !(row[kid.feature] <= kid.threshold);
          at[l] = slot;
          live[alive] = {slot, static_cast<std::int32_t>(l)};
          alive += internal(slot);
        }
      }
      // Level passes: step every live lane once, keep those not at a leaf.
      while (alive > 0) {
        std::size_t kept = 0;
        for (std::size_t k = 0; k < alive; ++k) {
          const Lane ln = live[k];
          const PackedNode& node = nodes[static_cast<std::size_t>(ln.slot)];
          const double* row = lane_row[static_cast<std::size_t>(ln.lane)];
          const std::int32_t slot = node.child + !(row[node.feature] <= node.threshold);
          at[static_cast<std::size_t>(ln.lane)] = slot;
          next_live[kept] = {slot, ln.lane};
          kept += internal(slot);
        }
        std::swap(live, next_live);
        alive = kept;
      }
      for (std::size_t lane = 0; lane < lanes; lane += bn) {
        for (std::size_t r = 0; r < bn; ++r) {
          const auto leaf = static_cast<std::size_t>(at[lane + r]);
          const auto c = static_cast<std::size_t>(leaf_class_[leaf]);
          ++votes[r * kVoteSlots + c % kVoteSlots];
        }
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
  // A tree's header alone (classes, depth, node count) is 20 bytes.
  constexpr std::size_t kTreeHeaderBytes = sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
  const auto classes = static_cast<int>(r.get_u32());
  const std::uint64_t count = r.get_u64();
  if (count > r.remaining() / kTreeHeaderBytes) {
    throw std::out_of_range("RandomForest::load: tree count exceeds the input");
  }
  std::vector<DecisionTree> trees(count);
  for (auto& tree : trees) {
    tree.load(r);
    if (!tree.trained()) throw std::invalid_argument("RandomForest::load: empty tree");
  }
  num_classes_ = classes;
  trees_ = std::move(trees);
  rebuild_packed();
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

// Batch-vs-scalar equivalence for the three paper models: score_batch
// must be bit-identical to per-row predict() — on training-like data and
// on adversarial fuzz matrices — and the train/serve scaler guards must
// hold. These are the determinism tests backing DESIGN.md §10.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/cnn.hpp"
#include "ml/design_matrix.hpp"
#include "ml/kmeans.hpp"
#include "ml/preprocess.hpp"
#include "ml/random_forest.hpp"
#include "rf_model_file.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {
namespace {

using util::Rng;

constexpr std::size_t kDims = 17;  // the feature schema's width

void make_blobs(std::size_t n, double separation, Rng& rng, DesignMatrix& x,
                std::vector<int>& y) {
  x = DesignMatrix{kDims};
  y.clear();
  std::vector<double> row(kDims);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (std::size_t d = 0; d < kDims; ++d) {
      row[d] = rng.normal(cls == 0 ? 0.0 : separation, 1.0);
    }
    x.add_row(row);
    y.push_back(cls);
  }
}

/// Adversarial inputs for a tie-hunting equality check: clustered noise,
/// exact duplicates, near-boundary points, zeros, and large magnitudes.
DesignMatrix make_fuzz_matrix(std::size_t n, Rng& rng) {
  DesignMatrix x{kDims};
  std::vector<double> row(kDims);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 0:  // broad uniform noise
        for (auto& v : row) v = rng.uniform(-10.0, 10.0);
        break;
      case 1:  // tight cluster near the class boundary
        for (auto& v : row) v = rng.normal(1.5, 0.05);
        break;
      case 2:  // all-zero / constant rows
        for (auto& v : row) v = 0.0;
        break;
      case 3:  // huge magnitudes (exercise the scaler's ±3σ clamp)
        for (auto& v : row) v = rng.uniform(-1e6, 1e6);
        break;
      default:  // duplicate of the previous row (exact ties)
        break;
    }
    x.add_row(row);
  }
  return x;
}

/// score_batch (batched) vs per-row predict(), the scalar oracle: they
/// must agree verdict-for-verdict.
void expect_batch_matches_scalar(const Classifier& model, const DesignMatrix& x) {
  Verdicts batched;
  model.score_batch(x, batched);
  ASSERT_EQ(batched.size(), x.rows());

  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_EQ(batched[i], model.predict(x.row(i))) << model.name() << " row " << i;
  }
}

struct Trained {
  std::unique_ptr<Classifier> model;
  DesignMatrix train_x;
  std::vector<int> train_y;
};

Trained train(std::unique_ptr<Classifier> model, std::uint64_t seed) {
  Trained t;
  Rng rng{seed};
  make_blobs(600, 3.0, rng, t.train_x, t.train_y);
  model->fit(t.train_x, t.train_y);
  t.model = std::move(model);
  return t;
}

class BatchEqualityTest : public ::testing::TestWithParam<int> {
 protected:
  Trained make_trained() const {
    switch (GetParam()) {
      case 0: {
        RandomForestConfig cfg;
        cfg.n_estimators = 20;  // keep the fuzz sweep fast
        return train(std::make_unique<RandomForest>(cfg), 11);
      }
      case 1:
        return train(std::make_unique<KMeansDetector>(), 12);
      default: {
        CnnConfig cfg;
        cfg.epochs = 2;
        cfg.max_training_rows = 400;
        return train(std::make_unique<Cnn1D>(cfg), 13);
      }
    }
  }
};

TEST_P(BatchEqualityTest, BitIdenticalOnTrainingData) {
  const Trained t = make_trained();
  expect_batch_matches_scalar(*t.model, t.train_x);
}

TEST_P(BatchEqualityTest, BitIdenticalOnFuzzMatrices) {
  const Trained t = make_trained();
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Rng rng{seed};
    expect_batch_matches_scalar(*t.model, make_fuzz_matrix(97, rng));
  }
}

TEST_P(BatchEqualityTest, OddBatchSizesIncludingPartialTiles) {
  // Sizes straddling the kernels' internal row blocks and the GEMM tile
  // widths (1, sub-tile, tile±1, block±1, whole blocks), and the RF's
  // 128-row blocks and their balanced split (129 runs as 64 + 65, 257 as
  // 85 + 86 + 86, 1000 as eight of 125).
  const Trained t = make_trained();
  Rng rng{42};
  for (const std::size_t n : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u,
                              129u, 255u, 256u, 257u, 300u, 1000u}) {
    expect_batch_matches_scalar(*t.model, make_fuzz_matrix(n, rng));
  }
}

TEST_P(BatchEqualityTest, SaveLoadRoundTripKeepsBatchVerdicts) {
  const Trained t = make_trained();
  util::ByteWriter w;
  t.model->save(w);

  auto fresh = [&]() -> std::unique_ptr<Classifier> {
    switch (GetParam()) {
      case 0: return std::make_unique<RandomForest>();
      case 1: return std::make_unique<KMeansDetector>();
      default: return std::make_unique<Cnn1D>();
    }
  }();
  util::ByteReader r{w.bytes()};
  fresh->load(r);

  Rng rng{7};
  const DesignMatrix x = make_fuzz_matrix(64, rng);
  Verdicts before, after;
  t.model->score_batch(x, before);
  fresh->score_batch(x, after);
  EXPECT_EQ(before, after);
}

std::string model_param_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "Rf";
    case 1: return "Kmeans";
    default: return "Cnn";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, BatchEqualityTest, ::testing::Values(0, 1, 2),
                         model_param_name);

// --------------------------------------------------------------------------
// Random Forest kernel edges: lane groups, leaf roots, split ties, the vote
// wrap (DESIGN.md §10)
// --------------------------------------------------------------------------

using test_oracle::RfModelFile;
using test_oracle::rf_leaf;
using test_oracle::rf_split;

/// Row counts around the RF kernel's 128-row block and its balanced split.
constexpr std::size_t kRfBatchSizes[] = {1, 2, 3, 64, 65, 127, 128, 129, 257, 300};

RandomForest load_forest(const RfModelFile& file) {
  const auto bytes = file.bytes();
  util::ByteReader r{bytes};
  RandomForest rf;
  rf.load(r);
  return rf;
}

/// Scores x whole and in every size of kRfBatchSizes, each against
/// predict().
void expect_rf_batches_match(const RandomForest& rf, const DesignMatrix& x) {
  expect_batch_matches_scalar(rf, x);
  for (const std::size_t n : kRfBatchSizes) {
    DesignMatrix part{x.cols()};
    for (std::size_t i = 0; i < n; ++i) part.add_row(x.row(i % x.rows()));
    expect_batch_matches_scalar(rf, part);
  }
}

TEST(RfKernelTest, ForestsOfOneThreeAndAHundredTrees) {
  // One tree never fills a lane group; 100 trees split unevenly into
  // groups of 3 (the 65-row block of a 129-row batch) and run 100 lanes
  // at once for a lone row. Overlapping blobs with noisy labels grow
  // deep trees, so lanes run many level passes, not just the init pass.
  DesignMatrix x;
  std::vector<int> y;
  Rng data_rng{21};
  make_blobs(600, 0.5, data_rng, x, y);
  for (std::size_t i = 0; i < y.size(); i += 7) y[i] ^= 1;
  for (const std::size_t trees : {1u, 3u, 100u}) {
    RandomForest rf{RandomForestConfig{.n_estimators = trees}};
    rf.fit(x, y);
    Rng rng{trees};
    expect_rf_batches_match(rf, x);
    expect_rf_batches_match(rf, make_fuzz_matrix(300, rng));
  }
}

/// A complete tree of `depth` split levels in breadth-first order: node i
/// splits feature (level + shift) % kDims at 0 into 2i + 1 and 2i + 2.
/// Split nodes carry class 5, which no leaf has, so a lane that stopped
/// at one would vote a class predict() never returns.
std::vector<test_oracle::RfNode> complete_tree(std::int32_t depth, std::int32_t shift) {
  std::vector<test_oracle::RfNode> nodes;
  const std::int32_t splits = (1 << depth) - 1;
  for (std::int32_t i = 0; i < splits; ++i) {
    std::int32_t level = 0;
    while ((2 << level) - 1 <= i) ++level;
    test_oracle::RfNode n = rf_split((level + shift) % static_cast<std::int32_t>(kDims), 0.0,
                                     2 * i + 1, 2 * i + 2);
    n.leaf_class = 5;
    nodes.push_back(n);
  }
  for (std::int32_t i = 0; i <= splits; ++i) nodes.push_back(rf_leaf(i % 3 == 0 ? 1 : 0));
  return nodes;
}

TEST(RfKernelTest, DeepTreesWalkEveryLaneToItsLeaf) {
  // Every lane takes nine hops: two in the init pass, seven level passes.
  Rng rng{8};
  const DesignMatrix x = make_fuzz_matrix(300, rng);
  expect_rf_batches_match(load_forest({complete_tree(9, 0)}), x);
  expect_rf_batches_match(
      load_forest({complete_tree(9, 0), complete_tree(9, 3), complete_tree(9, 6)}), x);
}

TEST(RfKernelTest, TreesWhoseRootIsALeaf) {
  // Leaf roots among split trees, and a forest of nothing but leaf roots
  // (no split reads any feature).
  Rng rng{5};
  const DesignMatrix x = make_fuzz_matrix(300, rng);
  expect_rf_batches_match(load_forest({{rf_leaf(1)},
                                       {rf_split(0, 0.0, 1, 2), rf_leaf(0), rf_leaf(1)},
                                       {rf_leaf(0)},
                                       {rf_leaf(1)},
                                       {rf_split(3, 1.5, 1, 2), rf_leaf(1), rf_leaf(0)}}),
                          x);
  const RandomForest leaves = load_forest({{rf_leaf(1)}, {rf_leaf(0)}, {rf_leaf(1)}});
  expect_rf_batches_match(leaves, x);
  Verdicts out;
  leaves.score_batch(x, out);
  EXPECT_EQ(out, Verdicts(x.rows(), 1));
}

TEST(RfKernelTest, RowsOnThresholdsNaNAndInfinities) {
  // Every combination of eight edge values over the three split features:
  // a value exactly on a threshold must go left (x <= threshold), NaN
  // right, and an infinite or NaN threshold must behave as in predict().
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const RandomForest rf = load_forest(
      {{rf_split(0, 0.5, 1, 2), rf_split(1, 0.5, 3, 4), rf_split(2, kInf, 5, 6), rf_leaf(0),
        rf_leaf(1), rf_split(1, -0.0, 7, 8), rf_leaf(1), rf_leaf(1), rf_leaf(0)},
       {rf_split(2, kNaN, 1, 2), rf_leaf(1), rf_split(0, -kInf, 3, 4), rf_leaf(1), rf_leaf(0)},
       {rf_split(0, 0.5, 1, 2), rf_leaf(1), rf_leaf(0)}});
  const double edges[] = {0.5, std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0), 0.0, -0.0,
                          kNaN, kInf, -kInf};
  DesignMatrix x{3};
  for (const double a : edges) {
    for (const double b : edges) {
      for (const double c : edges) x.add_row(std::vector<double>{a, b, c});
    }
  }
  expect_rf_batches_match(rf, x);
}

TEST(RfKernelTest, LeafClassesPastTheVoteSlotsWrap) {
  // predict() votes in slot (unsigned) class % 16: 17 shares slot 1 with
  // class 1, 16 and 32 share slot 0, and -1 lands in slot 15.
  const RandomForest rf = load_forest({{rf_split(0, 0.0, 1, 2), rf_leaf(-1), rf_leaf(17)},
                                       {rf_split(1, 0.0, 1, 2), rf_leaf(-1), rf_leaf(16)},
                                       {rf_split(2, 0.0, 1, 2), rf_leaf(32), rf_leaf(1)},
                                       {rf_leaf(-17)}});
  Rng rng{6};
  const DesignMatrix x = make_fuzz_matrix(300, rng);
  expect_rf_batches_match(rf, x);
  Verdicts out;
  rf.score_batch(x, out);
  const std::set<int> seen(out.begin(), out.end());
  EXPECT_TRUE(seen.count(15)) << "no row voted the wrapped class -1 into the lead";
  EXPECT_TRUE(seen.count(1)) << "no row voted 17 and 1 into the lead";
}

// --------------------------------------------------------------------------
// Scaler guards (train/serve equality)
// --------------------------------------------------------------------------

TEST(ScalerGuardTest, TransformIntoMatchesTransform) {
  Rng rng{3};
  DesignMatrix x;
  std::vector<int> y;
  make_blobs(50, 3.0, rng, x, y);
  StandardScaler scaler;
  scaler.fit(x);

  std::vector<double> buf(kDims);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto expected = scaler.transform(x.row(i));
    scaler.transform_into(x.row(i), buf);
    for (std::size_t c = 0; c < kDims; ++c) {
      // Bit-identical, not just close: the batched path feeds the models
      // through transform_into.
      EXPECT_EQ(buf[c], expected[c]);
    }
  }
}

TEST(ScalerGuardTest, FingerprintTracksParameters) {
  Rng rng{4};
  DesignMatrix x;
  std::vector<int> y;
  make_blobs(50, 3.0, rng, x, y);
  StandardScaler a, b;
  a.fit(x);
  b.fit(x);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  DesignMatrix shifted{kDims};
  std::vector<double> row(kDims, 0.5);
  shifted.add_row(row);
  row.assign(kDims, 1.5);
  shifted.add_row(row);
  b.fit(shifted);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScalerGuardTest, LoadRejectsTamperedParameters) {
  Rng rng{5};
  DesignMatrix x;
  std::vector<int> y;
  make_blobs(50, 3.0, rng, x, y);
  StandardScaler scaler;
  scaler.fit(x);

  util::ByteWriter w;
  scaler.save(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  // Flip one bit inside the first mean value: the affine map changes but
  // the stored fingerprint stays — exactly the train/serve skew the guard
  // exists to catch.
  bytes[sizeof(std::uint64_t)] ^= 0x01;

  StandardScaler loaded;
  util::ByteReader r{bytes};
  EXPECT_THROW(loaded.load(r), std::invalid_argument);
}

}  // namespace
}  // namespace ddoshield::ml

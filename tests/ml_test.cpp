// Tests for the ML layer: containers, preprocessing, metrics, and the
// three classifiers (Random Forest, K-Means, CNN) on synthetic data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/cnn.hpp"
#include "ml/decision_tree.hpp"
#include "ml/design_matrix.hpp"
#include "ml/kmeans.hpp"
#include "ml/metrics.hpp"
#include "ml/model_store.hpp"
#include "ml/preprocess.hpp"
#include "ml/random_forest.hpp"
#include "rf_model_file.hpp"
#include "testkit/temp_path.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {
namespace {

using util::Rng;

/// Two Gaussian blobs in `dims` dimensions, linearly separable when
/// `separation` is large relative to the unit blob stddev.
void make_blobs(std::size_t n, std::size_t dims, double separation, Rng& rng,
                DesignMatrix& x, std::vector<int>& y) {
  x = DesignMatrix{dims};
  y.clear();
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = rng.normal(cls == 0 ? 0.0 : separation, 1.0);
    }
    x.add_row(row);
    y.push_back(cls);
  }
}

double accuracy_on(const Classifier& model, const DesignMatrix& x, const std::vector<int>& y) {
  const auto pred = model.predict_batch(x);
  std::size_t ok = 0;
  for (std::size_t i = 0; i < y.size(); ++i) ok += pred[i] == y[i];
  return static_cast<double>(ok) / static_cast<double>(y.size());
}

// --------------------------------------------------------------------------
// DesignMatrix
// --------------------------------------------------------------------------

TEST(DesignMatrixTest, AddAndAccessRows) {
  DesignMatrix m{3};
  m.add_row(std::vector<double>{1, 2, 3});
  m.add_row(std::vector<double>{4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 6.0);
  EXPECT_EQ(m.row(0).size(), 3u);
  EXPECT_EQ(m.byte_size(), 6 * sizeof(double));
}

TEST(DesignMatrixTest, Validation) {
  EXPECT_THROW(DesignMatrix{0}, std::invalid_argument);
  DesignMatrix m{2};
  EXPECT_THROW(m.add_row(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(m.row(0), std::out_of_range);
  EXPECT_TRUE(m.empty());
}

TEST(DesignMatrixTest, MutableRowWritesThrough) {
  DesignMatrix m{2};
  m.add_row(std::vector<double>{1, 2});
  m.mutable_row(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 9.0);
}

// --------------------------------------------------------------------------
// StandardScaler
// --------------------------------------------------------------------------

TEST(ScalerTest, CentersAndScales) {
  DesignMatrix x{2};
  x.add_row(std::vector<double>{0.0, 10.0});
  x.add_row(std::vector<double>{2.0, 20.0});
  x.add_row(std::vector<double>{4.0, 30.0});
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.mean()[0], 2.0);
  EXPECT_DOUBLE_EQ(scaler.mean()[1], 20.0);
  const auto z = scaler.transform(x.row(0));
  EXPECT_NEAR(z[0], -2.0 / scaler.stddev()[0], 1e-12);
  // Transformed data has ~zero mean.
  const DesignMatrix zx = scaler.transform(x);
  double mean0 = (zx.at(0, 0) + zx.at(1, 0) + zx.at(2, 0)) / 3.0;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
}

TEST(ScalerTest, ConstantFeatureScalesToZero) {
  DesignMatrix x{1};
  for (int i = 0; i < 5; ++i) x.add_row(std::vector<double>{7.0});
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_DOUBLE_EQ(scaler.transform(x.row(0))[0], 0.0);
}

TEST(ScalerTest, ClampsToTrainingSupport) {
  DesignMatrix x{1};
  for (int i = -2; i <= 2; ++i) x.add_row(std::vector<double>{static_cast<double>(i)});
  StandardScaler scaler;
  scaler.fit(x);
  // A wildly out-of-range value clamps at +-3 sigma.
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{1e9})[0], 3.0);
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{-1e9})[0], -3.0);
}

TEST(ScalerTest, ErrorsOnMisuse) {
  StandardScaler scaler;
  EXPECT_FALSE(scaler.fitted());
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(scaler.fit(DesignMatrix{}), std::invalid_argument);
  DesignMatrix x{2};
  x.add_row(std::vector<double>{1, 2});
  scaler.fit(x);
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(ScalerTest, SaveLoadRoundTrip) {
  DesignMatrix x{2};
  x.add_row(std::vector<double>{1, 100});
  x.add_row(std::vector<double>{3, 300});
  StandardScaler scaler;
  scaler.fit(x);
  util::ByteWriter w;
  scaler.save(w);
  StandardScaler loaded;
  util::ByteReader r{w.bytes()};
  loaded.load(r);
  EXPECT_EQ(loaded.mean(), scaler.mean());
  EXPECT_EQ(loaded.stddev(), scaler.stddev());
}

// --------------------------------------------------------------------------
// train_test_split / subsample
// --------------------------------------------------------------------------

TEST(SplitTest, StratifiedProportions) {
  DesignMatrix x{1};
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.add_row(std::vector<double>{static_cast<double>(i)});
    y.push_back(i < 80 ? 0 : 1);  // 80/20 imbalance
  }
  Rng rng{3};
  const auto split = train_test_split(x, y, 0.25, rng);
  EXPECT_EQ(split.test_y.size(), 25u);
  EXPECT_EQ(split.train_y.size(), 75u);
  const auto count_ones = [](const std::vector<int>& v) {
    return std::count(v.begin(), v.end(), 1);
  };
  EXPECT_EQ(count_ones(split.test_y), 5);  // stratification preserved
  EXPECT_EQ(count_ones(split.train_y), 15);
}

TEST(SplitTest, Validation) {
  DesignMatrix x{1};
  x.add_row(std::vector<double>{1.0});
  Rng rng{1};
  EXPECT_THROW(train_test_split(x, {0, 1}, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(x, {0}, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(train_test_split(x, {0}, 1.0, rng), std::invalid_argument);
}

TEST(SubsampleTest, CapsRowsAndPreservesAll) {
  DesignMatrix x{1};
  std::vector<int> y;
  for (int i = 0; i < 50; ++i) {
    x.add_row(std::vector<double>{static_cast<double>(i)});
    y.push_back(i % 2);
  }
  Rng rng{4};
  DesignMatrix small;
  std::vector<int> small_y;
  subsample(x, y, 10, rng, small, small_y);
  EXPECT_EQ(small.rows(), 10u);
  EXPECT_EQ(small_y.size(), 10u);

  DesignMatrix all;
  std::vector<int> all_y;
  subsample(x, y, 100, rng, all, all_y);
  EXPECT_EQ(all.rows(), 50u);
  EXPECT_EQ(all_y, y);
}

// --------------------------------------------------------------------------
// ConfusionMatrix
// --------------------------------------------------------------------------

TEST(ConfusionMatrixTest, CellsAndMetrics) {
  ConfusionMatrix cm;
  // 8 TP, 1 FN, 1 FP, 10 TN.
  for (int i = 0; i < 8; ++i) cm.add(1, 1);
  cm.add(1, 0);
  cm.add(0, 1);
  for (int i = 0; i < 10; ++i) cm.add(0, 0);
  EXPECT_EQ(cm.tp(), 8u);
  EXPECT_EQ(cm.fn(), 1u);
  EXPECT_EQ(cm.fp(), 1u);
  EXPECT_EQ(cm.tn(), 10u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.9);
  EXPECT_DOUBLE_EQ(cm.precision(), 8.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 8.0 / 9.0);
  EXPECT_NEAR(cm.f1(), 8.0 / 9.0, 1e-12);
}

TEST(ConfusionMatrixTest, EmptyDenominatorsReturnZero) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.accuracy(), 0.0);
  EXPECT_EQ(cm.precision(), 0.0);
  EXPECT_EQ(cm.recall(), 0.0);
  EXPECT_EQ(cm.f1(), 0.0);
  // Single-class window (the paper's division-by-zero caveat): only
  // benign truth and benign predictions -> recall undefined -> 0.
  cm.add(0, 0);
  EXPECT_EQ(cm.recall(), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(ConfusionMatrixTest, AddAllValidatesSizes) {
  ConfusionMatrix cm;
  std::vector<int> t{1, 0};
  std::vector<int> p{1};
  EXPECT_THROW(cm.add_all(t, p), std::invalid_argument);
  cm.add_all(t, t);
  EXPECT_EQ(cm.total(), 2u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
}

TEST(ConfusionMatrixTest, ToStringMentionsAll) {
  ConfusionMatrix cm;
  cm.add(1, 1);
  const std::string s = cm.to_string();
  EXPECT_NE(s.find("tp=1"), std::string::npos);
  EXPECT_NE(s.find("acc="), std::string::npos);
}

// --------------------------------------------------------------------------
// DecisionTree
// --------------------------------------------------------------------------

TEST(DecisionTreeTest, LearnsAxisAlignedBoundary) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{5};
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.add_row(std::vector<double>{a, b});
    y.push_back(a > 0.5 ? 1 : 0);
  }
  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  DecisionTree tree;
  tree.fit(x, y, idx, 2, TreeConfig{}, rng);
  EXPECT_TRUE(tree.trained());
  std::size_t ok = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) ok += tree.predict(x.row(i)) == y[i];
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(x.rows()), 0.98);
  EXPECT_GE(tree.depth(), 1u);
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  DesignMatrix x{1};
  std::vector<int> y;
  for (int i = 0; i < 10; ++i) {
    x.add_row(std::vector<double>{static_cast<double>(i)});
    y.push_back(1);
  }
  std::vector<std::size_t> idx(10);
  for (std::size_t i = 0; i < 10; ++i) idx[i] = i;
  Rng rng{6};
  DecisionTree tree;
  tree.fit(x, y, idx, 2, TreeConfig{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{99.0}), 1);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  DesignMatrix x{1};
  std::vector<int> y;
  Rng rng{7};
  for (int i = 0; i < 200; ++i) {
    x.add_row(std::vector<double>{rng.uniform()});
    y.push_back(rng.bernoulli(0.5) ? 1 : 0);  // pure noise forces deep growth
  }
  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  DecisionTree tree;
  tree.fit(x, y, idx, 2, TreeConfig{.max_depth = 3, .min_samples_leaf = 1}, rng);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTreeTest, Validation) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
  DesignMatrix x{1};
  x.add_row(std::vector<double>{1.0});
  std::vector<std::size_t> idx{0};
  Rng rng{1};
  EXPECT_THROW(tree.fit(x, std::vector<int>{0, 1}, idx, 2, TreeConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(x, std::vector<int>{0}, {}, 2, TreeConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(x, std::vector<int>{0}, idx, 1, TreeConfig{}, rng),
               std::invalid_argument);
}

TEST(DecisionTreeTest, SerializationRoundTrip) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{8};
  make_blobs(200, 2, 4.0, rng, x, y);
  std::vector<std::size_t> idx(x.rows());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  DecisionTree tree;
  tree.fit(x, y, idx, 2, TreeConfig{}, rng);

  util::ByteWriter w;
  tree.save(w);
  DecisionTree loaded;
  util::ByteReader r{w.bytes()};
  loaded.load(r);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(loaded.predict(x.row(i)), tree.predict(x.row(i)));
  }
}

// --------------------------------------------------------------------------
// RandomForest
// --------------------------------------------------------------------------

TEST(RandomForestTest, SeparatesBlobs) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{9};
  make_blobs(1000, 4, 3.0, rng, x, y);
  RandomForest rf{RandomForestConfig{.n_estimators = 20}};
  rf.fit(x, y);
  EXPECT_TRUE(rf.trained());
  EXPECT_EQ(rf.tree_count(), 20u);
  EXPECT_GT(accuracy_on(rf, x, y), 0.97);
}

TEST(RandomForestTest, HandlesNoisyLabels) {
  DesignMatrix x{3};
  std::vector<int> y;
  Rng rng{10};
  make_blobs(1000, 3, 4.0, rng, x, y);
  for (std::size_t i = 0; i < y.size(); i += 10) y[i] ^= 1;  // 10% label noise
  RandomForest rf{RandomForestConfig{.n_estimators = 30}};
  rf.fit(x, y);
  // The ensemble should still track the true boundary on clean majority.
  EXPECT_GT(accuracy_on(rf, x, y), 0.85);
}

TEST(RandomForestTest, Validation) {
  EXPECT_THROW(RandomForest(RandomForestConfig{.n_estimators = 0}), std::invalid_argument);
  RandomForest rf;
  EXPECT_THROW(rf.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(rf.fit(DesignMatrix{}, {}), std::invalid_argument);
}

TEST(RandomForestTest, SerializationRoundTrip) {
  DesignMatrix x{3};
  std::vector<int> y;
  Rng rng{11};
  make_blobs(300, 3, 3.0, rng, x, y);
  RandomForest rf{RandomForestConfig{.n_estimators = 8}};
  rf.fit(x, y);

  const auto bytes = serialize_model(rf);
  const auto loaded = deserialize_model(bytes);
  EXPECT_EQ(loaded->name(), "rf");
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded->predict(x.row(i)), rf.predict(x.row(i)));
  }
  EXPECT_GT(rf.parameter_bytes(), 0u);
  EXPECT_GT(rf.inference_scratch_bytes(), 0u);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{12};
  make_blobs(200, 2, 2.0, rng, x, y);
  RandomForest a{RandomForestConfig{.n_estimators = 5, .seed = 7}};
  RandomForest b{RandomForestConfig{.n_estimators = 5, .seed = 7}};
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_EQ(serialize_model(a), serialize_model(b));
}

using test_oracle::RfModelFile;
using test_oracle::rf_leaf;
using test_oracle::rf_split;

template <typename Exception>
void expect_rf_load_throws(const RfModelFile& file, const char* what) {
  const auto bytes = file.bytes();
  util::ByteReader r{bytes};
  RandomForest rf;
  EXPECT_THROW(rf.load(r), Exception) << what;
}

TEST(RandomForestTest, LoadRejectsALinkBackToTheRoot) {
  // The root links to itself on both sides: scoring never returned.
  const RfModelFile file{{rf_split(0, 0.5, 0, 0)}};
  expect_rf_load_throws<std::invalid_argument>(file, "root -> root");
  // DecisionTree::load rejects it on its own too (the forest header is 12
  // bytes: classes and tree count).
  const auto bytes = file.bytes();
  util::ByteReader r{std::span{bytes}.subspan(12)};
  DecisionTree tree;
  EXPECT_THROW(tree.load(r), std::invalid_argument);
}

TEST(RandomForestTest, LoadRejectsChildLinksOutOfRange) {
  // A one-node tree linking to node 5,000,000: scoring segfaulted.
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 5'000'000, 5'000'000)}}, "child 5e6 of 1 node");
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 1, 3), rf_leaf(0), rf_leaf(1)}},
      "right child one past the end");
}

TEST(RandomForestTest, LoadRejectsLinksThatDoNotPointForward) {
  // Node 1 links back to node 0: a cycle 0 -> 1 -> 0.
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 1, 2), rf_split(1, 0.5, 0, 2), rf_leaf(1)}},
      "backward link");
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 1, 2), rf_split(1, 0.5, 1, 3), rf_leaf(0),
                             rf_leaf(1)}},
      "self link below the root");
}

TEST(RandomForestTest, LoadRejectsAChildSharedByTwoLinks) {
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 1, 1), rf_leaf(0)}}, "left == right");
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_split(0, 0.5, 1, 2), rf_split(1, 0.5, 2, 3), rf_leaf(0),
                             rf_leaf(1)}},
      "node 2 under the root and under node 1");
}

TEST(RandomForestTest, LoadRejectsCountsPastTheInputBeforeAllocating) {
  // 2^40 trees or nodes: the loader used to allocate them and throw
  // std::bad_alloc.
  RfModelFile file{{rf_leaf(1)}};
  file.tree_count = std::uint64_t{1} << 40;
  expect_rf_load_throws<std::out_of_range>(file, "2^40 trees");
  file = RfModelFile{{rf_leaf(1)}};
  file.node_count = std::uint64_t{1} << 40;
  expect_rf_load_throws<std::out_of_range>(file, "2^40 nodes");
}

TEST(RandomForestTest, LoadRejectsAnEmptyTree) {
  expect_rf_load_throws<std::invalid_argument>(
      RfModelFile{{rf_leaf(1)}, {}}, "second tree without nodes");
}

TEST(RandomForestTest, LoadedSplitOnAFeaturePastTheRowIsRejectedWhenScored) {
  // Feature 5 of a 3-wide row was an unchecked read.
  const auto bytes =
      RfModelFile{{rf_leaf(0)}, {rf_split(5, 0.5, 1, 2), rf_leaf(0), rf_leaf(1)}}
          .bytes();
  util::ByteReader r{bytes};
  RandomForest rf;
  rf.load(r);
  DesignMatrix narrow{3};
  narrow.add_row(std::vector<double>{0.0, 1.0, 2.0});
  Verdicts out;
  EXPECT_THROW(rf.score_batch(narrow, out), std::invalid_argument);
  EXPECT_THROW(rf.predict(narrow.row(0)), std::invalid_argument);

  DesignMatrix wide{6};
  wide.add_row(std::vector<double>{0.0, 0.0, 0.0, 0.0, 0.0, 1.0});
  rf.score_batch(wide, out);
  EXPECT_EQ(out[0], rf.predict(wide.row(0)));
}

// --------------------------------------------------------------------------
// KMeansDetector
// --------------------------------------------------------------------------

TEST(KMeansTest, ClustersAndLabelsBlobs) {
  DesignMatrix x{3};
  std::vector<int> y;
  Rng rng{13};
  make_blobs(1000, 3, 6.0, rng, x, y);
  KMeansDetector km;
  km.fit(x, y);
  EXPECT_TRUE(km.trained());
  EXPECT_GE(km.cluster_count(), 2u);
  EXPECT_GT(accuracy_on(km, x, y), 0.95);
}

TEST(KMeansTest, EntropyPenaltyPrunesClusters) {
  // Two well-separated blobs with 16 initial clusters: pruning + the
  // penalty should end well below the initial count.
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{14};
  make_blobs(2000, 2, 10.0, rng, x, y);
  KMeansDetector km{KMeansConfig{.initial_clusters = 16, .entropy_weight = 0.2,
                                 .min_proportion = 0.03}};
  km.fit(x, y);
  EXPECT_LT(km.cluster_count(), 16u);
  EXPECT_GE(km.cluster_count(), 2u);
  EXPECT_GT(accuracy_on(km, x, y), 0.95);
}

TEST(KMeansTest, ClusterLabelsCoverBothClasses) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{15};
  make_blobs(500, 2, 8.0, rng, x, y);
  KMeansDetector km;
  km.fit(x, y);
  const auto& labels = km.cluster_labels();
  EXPECT_NE(std::count(labels.begin(), labels.end(), 0), 0);
  EXPECT_NE(std::count(labels.begin(), labels.end(), 1), 0);
}

TEST(KMeansTest, Validation) {
  EXPECT_THROW(KMeansDetector(KMeansConfig{.initial_clusters = 1}), std::invalid_argument);
  KMeansDetector km;
  EXPECT_THROW(km.predict(std::vector<double>{1.0}), std::logic_error);
  DesignMatrix tiny{1};
  tiny.add_row(std::vector<double>{1.0});
  EXPECT_THROW(km.fit(tiny, {0}), std::invalid_argument);  // fewer rows than clusters
}

TEST(KMeansTest, SerializationRoundTrip) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{16};
  make_blobs(400, 2, 5.0, rng, x, y);
  KMeansDetector km;
  km.fit(x, y);
  const auto bytes = serialize_model(km);
  const auto loaded = deserialize_model(bytes);
  EXPECT_EQ(loaded->name(), "kmeans");
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded->predict(x.row(i)), km.predict(x.row(i)));
  }
  // K-Means models are tiny (Table II's 11.2 Kb row).
  EXPECT_LT(bytes.size(), 16 * 1024u);
}

// --------------------------------------------------------------------------
// Cnn1D
// --------------------------------------------------------------------------

TEST(CnnTest, LearnsLinearlySeparableBlobs) {
  DesignMatrix x{8};
  std::vector<int> y;
  Rng rng{17};
  make_blobs(2000, 8, 2.0, rng, x, y);
  Cnn1D cnn{CnnConfig{.filters = 4, .hidden = 32, .epochs = 6}};
  cnn.fit(x, y);
  EXPECT_TRUE(cnn.trained());
  EXPECT_GT(accuracy_on(cnn, x, y), 0.95);
}

TEST(CnnTest, ProbabilitiesSumToOne) {
  DesignMatrix x{6};
  std::vector<int> y;
  Rng rng{18};
  make_blobs(500, 6, 3.0, rng, x, y);
  Cnn1D cnn{CnnConfig{.filters = 4, .hidden = 16, .epochs = 3}};
  cnn.fit(x, y);
  const auto probs = cnn.predict_proba(x.row(0));
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
  EXPECT_GE(probs[0], 0.0);
  EXPECT_GE(probs[1], 0.0);
}

TEST(CnnTest, Validation) {
  EXPECT_THROW(Cnn1D(CnnConfig{.kernel = 4}), std::invalid_argument);
  EXPECT_THROW(Cnn1D(CnnConfig{.filters = 0}), std::invalid_argument);
  Cnn1D cnn;
  EXPECT_THROW(cnn.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(cnn.fit(DesignMatrix{}, {}), std::invalid_argument);
}

TEST(CnnTest, RejectsZeroBatchSize) {
  // A zero batch would never advance the training loop.
  EXPECT_THROW(Cnn1D(CnnConfig{.batch_size = 0}), std::invalid_argument);
  EXPECT_NO_THROW(Cnn1D(CnnConfig{.batch_size = 1}));
}

TEST(CnnTest, SerializationRoundTrip) {
  DesignMatrix x{6};
  std::vector<int> y;
  Rng rng{19};
  make_blobs(600, 6, 3.0, rng, x, y);
  Cnn1D cnn{CnnConfig{.filters = 4, .hidden = 24, .epochs = 3}};
  cnn.fit(x, y);
  const auto bytes = serialize_model(cnn);
  const auto loaded = deserialize_model(bytes);
  EXPECT_EQ(loaded->name(), "cnn");
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded->predict(x.row(i)), cnn.predict(x.row(i)));
  }
  EXPECT_EQ(cnn.parameter_bytes(), cnn.parameter_count() * sizeof(double));
}

TEST(CnnTest, ParameterCountMatchesArchitecture) {
  DesignMatrix x{8};
  std::vector<int> y;
  Rng rng{20};
  make_blobs(100, 8, 5.0, rng, x, y);
  Cnn1D cnn{CnnConfig{.filters = 2, .kernel = 3, .hidden = 4, .epochs = 1}};
  cnn.fit(x, y);
  // conv: 2*3+2, dense1: 4*(2*4)+4, dense2: 2*4+2
  const std::size_t expected = (2 * 3 + 2) + (4 * 8 + 4) + (2 * 4 + 2);
  EXPECT_EQ(cnn.parameter_count(), expected);
}

/// A CNN model file written field by field, so a test can make one field
/// disagree with the rest. The defaults describe a valid network over a
/// 1-wide scaler: 2 filters of 3 taps (flat size 2) and 3 hidden units.
struct CnnModelFile {
  std::uint64_t input_dim = 1;
  std::uint64_t filters = 2;
  std::uint64_t kernel = 3;
  std::uint64_t hidden = 3;
  std::vector<double> conv_w = std::vector<double>(6, 0.5);
  std::vector<double> conv_b = std::vector<double>(2, 0.1);
  std::vector<double> dense1_w = std::vector<double>(6, 0.25);
  std::vector<double> dense1_b = std::vector<double>(3, 0.1);
  std::vector<double> dense2_w = {0.3, -0.2, 0.1, -0.3, 0.2, -0.1};
  std::vector<double> dense2_b = {0.0, 0.0};

  std::vector<std::uint8_t> bytes() const {
    DesignMatrix x{1};
    x.add_row(std::vector<double>{0.0});
    x.add_row(std::vector<double>{2.0});
    StandardScaler scaler;
    scaler.fit(x);
    util::ByteWriter w;
    scaler.save(w);
    for (const std::uint64_t v : {input_dim, filters, kernel, hidden}) w.put_u64(v);
    for (const auto* v : {&conv_w, &conv_b, &dense1_w, &dense1_b, &dense2_w, &dense2_b}) {
      w.put_f64_span(*v);
    }
    return w.take();
  }
};

void expect_cnn_load_rejects(const CnnModelFile& file, const char* what) {
  const auto bytes = file.bytes();
  util::ByteReader r{bytes};
  Cnn1D cnn;
  EXPECT_THROW(cnn.load(r), std::invalid_argument) << what;
}

TEST(CnnTest, LoadAcceptsAConsistentFile) {
  const auto bytes = CnnModelFile{}.bytes();
  util::ByteReader r{bytes};
  Cnn1D cnn;
  cnn.load(r);
  EXPECT_TRUE(r.exhausted());
  DesignMatrix x{1};
  x.add_row(std::vector<double>{1.5});
  Verdicts out;
  cnn.score_batch(x, out);
  EXPECT_EQ(out[0], cnn.predict(x.row(0)));
}

TEST(CnnTest, LoadRejectsEmptyBiases) {
  // Each loaded before the fix; scoring then read through a null bias.
  CnnModelFile file;
  file.conv_b.clear();
  expect_cnn_load_rejects(file, "empty conv_b");
  file = {};
  file.dense1_b.clear();
  expect_cnn_load_rejects(file, "empty dense1_b");
  file = {};
  file.dense2_b.clear();
  expect_cnn_load_rejects(file, "empty dense2_b");
}

TEST(CnnTest, LoadRejectsInputWidthOtherThanTheScalers) {
  // Weights consistent with 64 inputs over a 1-wide scaler: predict()
  // would read 63 values past the scaled row.
  CnnModelFile file;
  file.input_dim = 64;
  file.dense1_w.assign(file.hidden * file.filters * 32, 0.25);
  expect_cnn_load_rejects(file, "input_dim 64, scaler width 1");
}

TEST(CnnTest, LoadRejectsArchitecturesTheConstructorRejects) {
  CnnModelFile file;
  file.kernel = 2;
  file.conv_w.assign(4, 0.5);
  expect_cnn_load_rejects(file, "even kernel");
  file = {};
  file.filters = 0;
  file.conv_w.clear();
  file.conv_b.clear();
  file.dense1_w.clear();
  expect_cnn_load_rejects(file, "zero filters");
  file = {};
  file.hidden = 0;
  file.dense1_w.clear();
  file.dense1_b.clear();
  file.dense2_w.clear();
  expect_cnn_load_rejects(file, "zero hidden");
}

TEST(CnnTest, LoadRejectsWrappingLengthProducts) {
  // hidden = 2^63: hidden * flat (2) and 2 * hidden both wrap to 0, which
  // empty weight vectors used to match.
  CnnModelFile file;
  file.hidden = std::uint64_t{1} << 63;
  file.dense1_w.clear();
  file.dense2_w.clear();
  expect_cnn_load_rejects(file, "hidden 2^63");
}

// --------------------------------------------------------------------------
// Model store
// --------------------------------------------------------------------------

TEST(ModelStoreTest, MakeModelByName) {
  EXPECT_EQ(make_model("rf")->name(), "rf");
  EXPECT_EQ(make_model("kmeans")->name(), "kmeans");
  EXPECT_EQ(make_model("cnn")->name(), "cnn");
  EXPECT_THROW(make_model("vae"), std::invalid_argument);
}

TEST(ModelStoreTest, RejectsCorruptBytes) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW(deserialize_model(junk), std::invalid_argument);
  EXPECT_THROW(deserialize_model({}), std::out_of_range);
}

TEST(ModelStoreTest, FileRoundTrip) {
  DesignMatrix x{2};
  std::vector<int> y;
  Rng rng{21};
  make_blobs(200, 2, 4.0, rng, x, y);
  RandomForest rf{RandomForestConfig{.n_estimators = 4}};
  rf.fit(x, y);
  const testkit::ScopedTempFile tmp{"ddoshield_model_test", ".bin"};
  save_model_file(rf, tmp.path());
  const auto loaded = load_model_file(tmp.path());
  EXPECT_EQ(loaded->name(), "rf");
  EXPECT_EQ(loaded->predict(x.row(0)), rf.predict(x.row(0)));
  EXPECT_THROW(load_model_file("/nonexistent/model.bin"), std::runtime_error);
}

// --------------------------------------------------------------------------
// Property-style sweeps: all three models beat the base rate on separable
// data across seeds and dimensions.
// --------------------------------------------------------------------------

struct ModelSweepParams {
  std::uint64_t seed;
  std::size_t dims;
};

class AllModelsSweep : public ::testing::TestWithParam<ModelSweepParams> {};

TEST_P(AllModelsSweep, SeparableBlobsAreLearnable) {
  const auto p = GetParam();
  DesignMatrix x{p.dims};
  std::vector<int> y;
  Rng rng{p.seed};
  make_blobs(600, p.dims, 4.0, rng, x, y);

  RandomForest rf{RandomForestConfig{.n_estimators = 10}};
  rf.fit(x, y);
  EXPECT_GT(accuracy_on(rf, x, y), 0.9) << "rf seed=" << p.seed;

  KMeansDetector km;
  km.fit(x, y);
  EXPECT_GT(accuracy_on(km, x, y), 0.9) << "kmeans seed=" << p.seed;

  Cnn1D cnn{CnnConfig{.filters = 4, .hidden = 16, .epochs = 4}};
  cnn.fit(x, y);
  EXPECT_GT(accuracy_on(cnn, x, y), 0.9) << "cnn seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(SeedsAndDims, AllModelsSweep,
                         ::testing::Values(ModelSweepParams{1, 4}, ModelSweepParams{2, 8},
                                           ModelSweepParams{3, 17}, ModelSweepParams{4, 6},
                                           ModelSweepParams{5, 12}));

}  // namespace
}  // namespace ddoshield::ml

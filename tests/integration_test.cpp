// Cross-module integration tests: the full capture → features → model →
// IDS chain under varied configurations, dataset persistence round trips
// through retraining, and all five detectors deployed end-to-end.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "csv_reader.hpp"
#include "ml/feature_selection.hpp"
#include "ml/isolation_forest.hpp"
#include "ml/model_store.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "testkit/temp_path.hpp"

namespace ddoshield::core {
namespace {

using botnet::AttackType;
using util::SimTime;

Scenario tiny_scenario(std::uint64_t seed) {
  Scenario s;
  s.seed = seed;
  s.device_count = 4;
  s.duration = SimTime::seconds(25);
  s.infection_start = SimTime::seconds(1);
  schedule_attack_cycle(s, SimTime::seconds(9), SimTime::seconds(24), SimTime::seconds(3),
                        SimTime::seconds(2),
                        {AttackType::kSynFlood, AttackType::kAckFlood, AttackType::kUdpFlood},
                        150.0);
  return s;
}

struct SharedPipeline {
  GenerationResult generation = run_generation(tiny_scenario(21));
  features::FeatureMatrix fm = features::extract_features(generation.dataset);
  ml::DesignMatrix x;
  std::vector<int> y;

  SharedPipeline() { to_design_matrix(fm, x, y); }

  static SharedPipeline& instance() {
    static SharedPipeline p;
    return p;
  }
};

// --------------------------------------------------------------------------
// Every registered detector runs end-to-end in the IDS container.
// --------------------------------------------------------------------------

class AllDetectorsEndToEnd : public ::testing::TestWithParam<const char*> {};

TEST_P(AllDetectorsEndToEnd, TrainsPersistsDetects) {
  auto& p = SharedPipeline::instance();
  auto model = ml::make_model(GetParam());
  model->fit(p.x, p.y);
  ASSERT_TRUE(model->trained());

  // Persist + reload (the PKL workflow), then deploy the *loaded* model.
  const auto bytes = ml::serialize_model(*model);
  const auto loaded = ml::deserialize_model(bytes);

  const DetectionResult result = run_detection(tiny_scenario(22), *loaded);
  EXPECT_GT(result.summary.windows, 5u);
  EXPECT_GT(result.summary.packets, 500u);
  // Everything should beat a coin flip on this easy scenario.
  EXPECT_GT(result.summary.average_accuracy, 0.5) << GetParam();
  EXPECT_GT(result.summary.cpu_percent, 0.0);
  EXPECT_GT(result.model_size_kb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Detectors, AllDetectorsEndToEnd,
                         ::testing::Values("rf", "kmeans", "cnn", "svm", "iforest"));

// --------------------------------------------------------------------------
// Dataset persistence: save -> load -> retrain gives identical models.
// --------------------------------------------------------------------------

TEST(DatasetRoundTripTest, RetrainingFromCsvIsIdentical) {
  auto& p = SharedPipeline::instance();
  const testkit::ScopedTempFile tmp{"ddoshield_integration_roundtrip", ".csv"};
  p.generation.dataset.save_csv(tmp.path());
  const capture::Dataset loaded = test_oracle::load_csv(tmp.path());
  ASSERT_EQ(loaded.size(), p.generation.dataset.size());

  const features::FeatureMatrix fm2 = features::extract_features(loaded);
  ml::DesignMatrix x2;
  std::vector<int> y2;
  to_design_matrix(fm2, x2, y2);
  ASSERT_EQ(x2.rows(), p.x.rows());
  EXPECT_EQ(y2, p.y);

  ml::LinearSvm a, b;
  a.fit(p.x, p.y);
  b.fit(x2, y2);
  EXPECT_EQ(ml::serialize_model(a), ml::serialize_model(b));
}

// --------------------------------------------------------------------------
// IDS window sweep: results remain sane across window sizes.
// --------------------------------------------------------------------------

class WindowSweepIntegration : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WindowSweepIntegration, DetectionSaneAcrossWindows) {
  auto& p = SharedPipeline::instance();
  ml::LinearSvm svm;
  svm.fit(p.x, p.y);

  ids::IdsConfig cfg;
  cfg.window = SimTime::millis(GetParam());
  const DetectionResult result = run_detection(tiny_scenario(23), svm, cfg);
  EXPECT_GT(result.summary.windows, 0u);
  EXPECT_GT(result.summary.average_accuracy, 0.5);
  EXPECT_LE(result.summary.average_accuracy, 1.0);
  // Window count scales inversely with window size (within slack: empty
  // windows produce no report).
  const auto expected = static_cast<double>(tiny_scenario(23).duration.ns()) /
                        static_cast<double>(cfg.window.ns());
  EXPECT_LE(result.summary.windows, static_cast<std::uint64_t>(expected) + 1);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepIntegration,
                         ::testing::Values(250, 500, 1000, 2000, 5000));

// --------------------------------------------------------------------------
// Feature selection composes with the IDS.
// --------------------------------------------------------------------------

TEST(FeatureSelectionIntegration, ReducedModelRunsInIds) {
  auto& p = SharedPipeline::instance();
  const auto ranking = ml::rank_features(p.x, p.y);
  const auto columns = ml::top_k_columns(ranking, 6);
  const ml::DesignMatrix reduced = ml::select_columns(p.x, columns);
  ml::RandomForest rf{ml::RandomForestConfig{.n_estimators = 20}};
  rf.fit(reduced, p.y);
  const ml::ColumnSubsetClassifier wrapped{rf, columns};

  const DetectionResult result = run_detection(tiny_scenario(24), wrapped);
  EXPECT_GT(result.summary.average_accuracy, 0.6);
}

// --------------------------------------------------------------------------
// Churn + attacks + IDS all at once (the kitchen-sink scenario).
// --------------------------------------------------------------------------

TEST(KitchenSinkTest, ChurnAttackAndDetectionCoexist) {
  auto& p = SharedPipeline::instance();
  ml::LinearSvm svm;
  svm.fit(p.x, p.y);

  Scenario s = tiny_scenario(25);
  s.churn.events_per_device_per_second = 0.03;
  s.churn.down_time = SimTime::seconds(3);
  s.attacks[1].spoof_sources = true;  // mix spoofed and unspoofed bursts

  const DetectionResult result = run_detection(s, svm);
  EXPECT_GT(result.summary.windows, 5u);
  EXPECT_GT(result.summary.average_accuracy, 0.5);
}

// --------------------------------------------------------------------------
// The skew adapter composes with any detector.
// --------------------------------------------------------------------------

class SkewAllModels : public ::testing::TestWithParam<const char*> {};

TEST_P(SkewAllModels, SkewServingNeverCrashes) {
  auto& p = SharedPipeline::instance();
  auto model = ml::make_model(GetParam());
  model->fit(p.x, p.y);
  const SkewServedClassifier skewed{*model};
  const DetectionResult result = run_detection(tiny_scenario(26), skewed);
  EXPECT_GT(result.summary.windows, 0u);
  EXPECT_GE(result.summary.average_accuracy, 0.0);
  EXPECT_LE(result.summary.average_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Detectors, SkewAllModels,
                         ::testing::Values("rf", "kmeans", "cnn", "svm"));

}  // namespace
}  // namespace ddoshield::core

// Tests for the model lifecycle subsystem (DESIGN.md §14): streaming
// drift detection, the reservoir replay buffer, background retraining,
// the drift→retrain→hot-swap manager, the per-model incremental_update
// paths, the int8-quantized CNN deployment kernel, and the versioned
// model store.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/cnn.hpp"
#include "ml/kmeans.hpp"
#include "ml/lifecycle/drift.hpp"
#include "ml/lifecycle/manager.hpp"
#include "ml/lifecycle/replay_buffer.hpp"
#include "ml/lifecycle/retrainer.hpp"
#include "ml/model_store.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml::lifecycle {
namespace {

using util::Rng;

DesignMatrix window_at(std::size_t rows, std::size_t dims, double center, Rng& rng) {
  DesignMatrix x{dims};
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.normal(center, 1.0);
    x.add_row(row);
  }
  return x;
}

void make_blobs(std::size_t n, std::size_t dims, double separation, Rng& rng,
                DesignMatrix& x, std::vector<int>& y) {
  x = DesignMatrix{dims};
  y.clear();
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (auto& v : row) v = rng.normal(cls == 0 ? 0.0 : separation, 1.0);
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
// DriftDetector
// --------------------------------------------------------------------------

TEST(DriftDetectorTest, StationaryTrafficNeverAlarms) {
  DriftDetector det{4, DriftConfig{.baseline_windows = 2}};
  Rng rng{11};
  for (int w = 0; w < 20; ++w) {
    EXPECT_FALSE(det.observe_window(window_at(64, 4, 0.0, rng)));
  }
  EXPECT_EQ(det.alarms(), 0u);
  EXPECT_LT(det.max_score(), 3.0);
}

TEST(DriftDetectorTest, ShiftedDistributionLatchesOnce) {
  DriftConfig cfg;
  cfg.baseline_windows = 2;
  cfg.alarm_features = 3;
  cfg.consecutive_windows = 2;
  DriftDetector det{4, cfg};
  Rng rng{12};
  for (int w = 0; w < 4; ++w) det.observe_window(window_at(64, 4, 0.0, rng));
  ASSERT_TRUE(det.has_reference());

  // A 10-stddev mean shift on every feature must fire after exactly
  // `consecutive_windows` drifted windows — and only fire once (edge).
  int edges = 0;
  for (int w = 0; w < 6; ++w) edges += det.observe_window(window_at(64, 4, 10.0, rng));
  EXPECT_EQ(edges, 1);
  EXPECT_EQ(det.alarms(), 1u);
  EXPECT_GT(det.max_score(), 3.0);
  EXPECT_GE(det.drifted_windows(), 2u);

  // reset_alarm re-arms: sustained drift fires again.
  det.reset_alarm();
  edges = 0;
  for (int w = 0; w < 4; ++w) edges += det.observe_window(window_at(64, 4, 10.0, rng));
  EXPECT_EQ(edges, 1);
  EXPECT_EQ(det.alarms(), 2u);
}

TEST(DriftDetectorTest, ScalerReferenceCarriesTheFingerprint) {
  Rng rng{13};
  DesignMatrix train = window_at(256, 4, 1.5, rng);
  StandardScaler scaler;
  scaler.fit(train);

  DriftDetector det{4, DriftConfig{}};
  det.set_reference(scaler);
  EXPECT_TRUE(det.has_reference());
  // Same FNV digest as the skew guard stamps into model files: the drift
  // reference is verifiably the distribution the model trained under.
  EXPECT_EQ(det.reference_fingerprint(), scaler.fingerprint());

  // Windows drawn from the training distribution stay quiet.
  for (int w = 0; w < 10; ++w) {
    EXPECT_FALSE(det.observe_window(window_at(64, 4, 1.5, rng)));
  }
  EXPECT_EQ(det.alarms(), 0u);

  StandardScaler narrow;
  narrow.fit(window_at(64, 3, 0.0, rng));
  DriftDetector wrong{4, DriftConfig{}};
  EXPECT_THROW(wrong.set_reference(narrow), std::invalid_argument);
}

TEST(DriftDetectorTest, TinyWindowsNeitherScoreNorAlarm) {
  DriftDetector det{4, DriftConfig{.baseline_windows = 1, .min_rows = 8}};
  Rng rng{14};
  det.observe_window(window_at(64, 4, 0.0, rng));  // baseline
  const auto before = det.windows_observed();
  EXPECT_FALSE(det.observe_window(window_at(3, 4, 50.0, rng)));
  EXPECT_EQ(det.windows_observed(), before);  // skipped, not scored
  EXPECT_EQ(det.alarms(), 0u);
}

TEST(DriftDetectorTest, ScoresAreDeterministic) {
  auto run = [] {
    DriftDetector det{4, DriftConfig{.baseline_windows = 2}};
    Rng rng{15};
    for (int w = 0; w < 8; ++w) det.observe_window(window_at(32, 4, w * 0.5, rng));
    return det.scores();
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------------------
// ReplayBuffer
// --------------------------------------------------------------------------

TEST(ReplayBufferTest, FillsThenStaysBounded) {
  Rng feed{21};
  ReplayBuffer buf{4, 100, Rng{1}.fork("lifecycle-replay")};
  std::vector<int> y(64, 1);
  for (int w = 0; w < 10; ++w) buf.add_window(window_at(64, 4, 0.0, feed), y);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(buf.seen(), 640u);

  DesignMatrix x;
  std::vector<int> labels;
  buf.snapshot(x, labels);
  EXPECT_EQ(x.rows(), 100u);
  EXPECT_EQ(labels.size(), 100u);
}

TEST(ReplayBufferTest, ResidentSetIsPureFunctionOfFeedAndSeed) {
  auto run = [] {
    Rng feed{22};
    ReplayBuffer buf{2, 50, Rng{9}.fork("lifecycle-replay")};
    for (int w = 0; w < 8; ++w) {
      DesignMatrix x = window_at(40, 2, w, feed);
      std::vector<int> y(40, w % 2);
      buf.add_window(x, y);
    }
    DesignMatrix x;
    std::vector<int> labels;
    buf.snapshot(x, labels);
    std::vector<double> flat;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const auto row = x.row(i);
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return std::make_pair(flat, labels);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ReplayBufferTest, LabelsTrackTheirRows) {
  // Encode each row's label in its features; after arbitrary reservoir
  // churn every resident row must still carry its own label.
  Rng feed{23};
  ReplayBuffer buf{1, 30, Rng{3}.fork("lifecycle-replay")};
  for (int w = 0; w < 20; ++w) {
    DesignMatrix x{1};
    std::vector<int> y;
    for (int i = 0; i < 16; ++i) {
      const int label = static_cast<int>(feed.uniform_u64(2));
      x.add_row(std::vector<double>{static_cast<double>(label)});
      y.push_back(label);
    }
    buf.add_window(x, y);
  }
  DesignMatrix x;
  std::vector<int> y;
  buf.snapshot(x, y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(static_cast<int>(x.row(i)[0]), y[i]) << "row " << i;
  }
}

// --------------------------------------------------------------------------
// Per-model incremental_update
// --------------------------------------------------------------------------

TEST(IncrementalUpdateTest, BaseClassifierRefuses) {
  // LinearSvm has no incremental path; the base refusal is what the
  // retrainer counts as a no-op and the manager serves through.
  LinearSvm svm;
  DesignMatrix x{3};
  std::vector<int> y;
  Rng rng{31};
  make_blobs(100, 3, 3.0, rng, x, y);
  svm.fit(x, y);
  Rng update_rng{1};
  EXPECT_FALSE(svm.incremental_update(x, y, update_rng));
}

template <typename Model>
void expect_incremental_update_is_pure(Model&& make) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{32};
  make_blobs(400, 4, 3.0, rng, x, y);

  DesignMatrix replay{4};
  std::vector<int> replay_y;
  make_blobs(200, 4, 3.5, rng, replay, replay_y);

  auto run = [&] {
    auto model = make();
    model->fit(x, y);
    Rng update_rng = Rng{0x11fe}.fork_stream("retrain", 2);
    EXPECT_TRUE(model->incremental_update(replay, replay_y, update_rng));
    EXPECT_TRUE(model->trained());
    return serialize_model(*model);
  };
  // Byte-identical models from byte-identical inputs: the retrainer's
  // determinism contract, per concrete model.
  EXPECT_EQ(run(), run());
}

TEST(IncrementalUpdateTest, RandomForestRefreshIsPureAndStaysAccurate) {
  expect_incremental_update_is_pure([] {
    return std::make_unique<RandomForest>(
        RandomForestConfig{.n_estimators = 8, .max_samples_per_tree = 200});
  });

  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{33};
  make_blobs(600, 4, 3.0, rng, x, y);
  RandomForest rf{RandomForestConfig{.n_estimators = 8}};
  rf.fit(x, y);
  Rng update_rng{7};
  ASSERT_TRUE(rf.incremental_update(x, y, update_rng));
  EXPECT_GT(accuracy_on(rf, x, y), 0.9);
}

TEST(IncrementalUpdateTest, KMeansCentroidRefreshIsPure) {
  expect_incremental_update_is_pure([] {
    return std::make_unique<KMeansDetector>(KMeansConfig{.initial_clusters = 8});
  });
}

TEST(IncrementalUpdateTest, CnnFineTuneIsPure) {
  expect_incremental_update_is_pure([] {
    return std::make_unique<Cnn1D>(
        CnnConfig{.filters = 2, .hidden = 8, .epochs = 1, .fine_tune_epochs = 1});
  });
}

TEST(IncrementalUpdateTest, CnnFineTuneOnDeserializedCloneMatchesOriginal) {
  // The retrainer fine-tunes a deserialize(serialize(base)) clone, never
  // the served object; the result must not depend on which one trains.
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{34};
  make_blobs(300, 4, 3.0, rng, x, y);

  Cnn1D base{CnnConfig{.filters = 2, .hidden = 8, .epochs = 1, .fine_tune_epochs = 1}};
  base.fit(x, y);
  const auto bytes = serialize_model(base);

  Rng rng_a = Rng{5}.fork_stream("retrain", 2);
  auto clone = deserialize_model(bytes);
  // Serialization carries only parameters; the clone's fine_tune_epochs
  // reset to the default on load. Adopt the deployment's knobs first,
  // exactly as the retrainer worker does.
  clone->adopt_deployment(base);
  ASSERT_TRUE(clone->incremental_update(x, y, rng_a));

  Rng rng_b = Rng{5}.fork_stream("retrain", 2);
  ASSERT_TRUE(base.incremental_update(x, y, rng_b));

  EXPECT_EQ(serialize_model(*clone), serialize_model(base));
}

// --------------------------------------------------------------------------
// int8-quantized CNN deployment kernel
// --------------------------------------------------------------------------

TEST(QuantizedCnnTest, ParityWithFloatKernel) {
  DesignMatrix x{8};
  std::vector<int> y;
  Rng rng{41};
  make_blobs(800, 8, 3.0, rng, x, y);

  Cnn1D cnn{CnnConfig{.filters = 4, .hidden = 32, .epochs = 4}};
  cnn.fit(x, y);
  const double float_acc = accuracy_on(cnn, x, y);
  ASSERT_GT(float_acc, 0.9);

  cnn.set_quantized_inference(true);
  EXPECT_TRUE(cnn.quantized_inference());
  EXPECT_GT(cnn.quantized_parameter_bytes(), 0u);
  // int8 dense1 tables are ~1/8 the float weights they replace.
  EXPECT_LT(cnn.quantized_parameter_bytes(), cnn.parameter_bytes() / 4);

  const double int8_acc = accuracy_on(cnn, x, y);
  // The CI accuracy-parity bar: dynamic int8 quantization of dense1 may
  // flip borderline rows but must not dent accuracy materially.
  EXPECT_GE(int8_acc, float_acc - 0.02);

  // Agreement rate, row by row: quantization error stays rare.
  cnn.set_quantized_inference(false);
  const auto float_pred = cnn.predict_batch(x);
  cnn.set_quantized_inference(true);
  const auto int8_pred = cnn.predict_batch(x);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < float_pred.size(); ++i) agree += float_pred[i] == int8_pred[i];
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(float_pred.size()), 0.98);
}

TEST(QuantizedCnnTest, QuantizedVerdictsAreDeterministic) {
  DesignMatrix x{6};
  std::vector<int> y;
  Rng rng{42};
  make_blobs(200, 6, 3.0, rng, x, y);
  Cnn1D cnn{CnnConfig{.filters = 2, .hidden = 16, .epochs = 2}};
  cnn.fit(x, y);
  cnn.set_quantized_inference(true);

  ml::Verdicts a, b;
  cnn.score_batch(x, a);
  cnn.score_batch(x, b);
  EXPECT_EQ(a, b);

  // The tables rebuild identically after a serialize/deserialize round
  // trip plus adopt_deployment (the retrainer's exact path).
  auto clone = deserialize_model(serialize_model(cnn));
  clone->adopt_deployment(cnn);
  auto* clone_cnn = dynamic_cast<Cnn1D*>(clone.get());
  ASSERT_NE(clone_cnn, nullptr);
  EXPECT_TRUE(clone_cnn->quantized_inference());
  ml::Verdicts c;
  clone_cnn->score_batch(x, c);
  EXPECT_EQ(a, c);
}

// --------------------------------------------------------------------------
// Retrainer
// --------------------------------------------------------------------------

RetrainJob make_job(const Classifier& base, const DesignMatrix& x, const std::vector<int>& y,
                    std::uint64_t version) {
  RetrainJob job;
  job.version = version;
  job.trigger_window = 10;
  job.model_bytes = serialize_model(base);
  job.x = x;
  job.y = y;
  job.rng = Rng{0x11fe}.fork_stream("retrain", version);
  return job;
}

TEST(RetrainerTest, DeliversUpdatedModelInOrder) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{51};
  make_blobs(300, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  Retrainer retrainer{base};
  retrainer.submit(make_job(base, x, y, 2));
  retrainer.submit(make_job(base, x, y, 3));

  const RetrainResult first = retrainer.collect();
  EXPECT_EQ(first.version, 2u);
  ASSERT_TRUE(first.updated);
  ASSERT_NE(first.model, nullptr);
  EXPECT_TRUE(first.model->trained());
  EXPECT_GT(accuracy_on(*first.model, x, y), 0.85);

  const RetrainResult second = retrainer.collect();
  EXPECT_EQ(second.version, 3u);
  EXPECT_EQ(retrainer.outstanding(), 0u);
  EXPECT_THROW(retrainer.collect(), std::logic_error);

  const auto stats = retrainer.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.noops, 0u);
}

TEST(RetrainerTest, ResultBytesMatchInlineRetrain) {
  // The worker's clone-and-update must equal the same computation run
  // inline on the submitting thread — the retrain layer's proof that the
  // background thread changes no bytes.
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{52};
  make_blobs(300, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  Retrainer retrainer{base};
  retrainer.submit(make_job(base, x, y, 2));
  const RetrainResult threaded = retrainer.collect();
  ASSERT_TRUE(threaded.updated);

  auto inline_clone = deserialize_model(serialize_model(base));
  inline_clone->adopt_deployment(base);
  Rng inline_rng = Rng{0x11fe}.fork_stream("retrain", 2);
  ASSERT_TRUE(inline_clone->incremental_update(x, y, inline_rng));

  EXPECT_EQ(serialize_model(*threaded.model), serialize_model(*inline_clone));
}

TEST(RetrainerTest, ModelWithoutIncrementalPathIsANoop) {
  DesignMatrix x{3};
  std::vector<int> y;
  Rng rng{53};
  make_blobs(200, 3, 3.0, rng, x, y);
  LinearSvm base;
  base.fit(x, y);

  Retrainer retrainer{base};
  retrainer.submit(make_job(base, x, y, 2));
  const RetrainResult res = retrainer.collect();
  EXPECT_FALSE(res.updated);
  EXPECT_EQ(res.model, nullptr);
  EXPECT_EQ(retrainer.stats().noops, 1u);
}

TEST(RetrainerTest, DestructionWithOutstandingJobsIsClean) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{54};
  make_blobs(300, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);
  auto retrainer = std::make_unique<Retrainer>(base);
  for (std::uint64_t v = 2; v < 6; ++v) retrainer->submit(make_job(base, x, y, v));
  retrainer.reset();  // must join without hanging or crashing
}

// --------------------------------------------------------------------------
// LifecycleManager
// --------------------------------------------------------------------------

LifecycleConfig fast_lifecycle() {
  LifecycleConfig cfg;
  cfg.enabled = true;
  cfg.retrain_every_windows = 3;
  cfg.cooldown_windows = 2;
  cfg.apply_latency_windows = 2;
  cfg.replay_capacity_rows = 512;
  cfg.min_replay_rows = 32;
  cfg.drift.baseline_windows = 2;
  return cfg;
}

TEST(LifecycleManagerTest, PeriodicTriggerSwapsAtTheScheduledWindow) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{61};
  make_blobs(400, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  LifecycleManager mgr{base, 4, fast_lifecycle()};
  EXPECT_EQ(mgr.version(), 1u);

  // retrain_every=3 windows with >=32 replay rows each: the trigger fires
  // at the third observed window, the swap applies apply_latency later.
  std::vector<int> labels(64, 1);
  std::shared_ptr<const Classifier> swapped;
  std::uint64_t swapped_at = 0;
  for (std::uint64_t w = 0; w < 12; ++w) {
    swapped = mgr.maybe_swap(w);
    if (swapped) {
      swapped_at = w;
      break;
    }
    mgr.observe_window(w, window_at(64, 4, 0.0, rng), labels);
  }
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped_at, 2 + fast_lifecycle().apply_latency_windows);
  EXPECT_EQ(mgr.version(), 2u);
  EXPECT_EQ(&mgr.current_model(), swapped.get());
  ASSERT_EQ(mgr.swaps().size(), 1u);
  EXPECT_EQ(mgr.swaps()[0].version, 2u);
  EXPECT_FALSE(mgr.swaps()[0].drift_triggered);
  EXPECT_EQ(mgr.swaps()[0].window_index,
            mgr.swaps()[0].trigger_window + fast_lifecycle().apply_latency_windows);
  const auto stats = mgr.stats();
  EXPECT_EQ(stats.retrains_triggered, 1u);
  EXPECT_EQ(stats.swaps_applied, 1u);
}

TEST(LifecycleManagerTest, DriftAlarmTriggersRetrain) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{62};
  make_blobs(400, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  LifecycleConfig cfg = fast_lifecycle();
  cfg.retrain_every_windows = 0;  // drift alarms only
  LifecycleManager mgr{base, 4, cfg};

  std::vector<int> labels(64, 1);
  // Two baseline windows, then a hard distribution break.
  for (std::uint64_t w = 0; w < 2; ++w) {
    mgr.maybe_swap(w);
    mgr.observe_window(w, window_at(64, 4, 0.0, rng), labels);
  }
  bool swapped = false;
  for (std::uint64_t w = 2; w < 12 && !swapped; ++w) {
    swapped = mgr.maybe_swap(w) != nullptr;
    if (!swapped) mgr.observe_window(w, window_at(64, 4, 12.0, rng), labels);
  }
  ASSERT_TRUE(swapped);
  EXPECT_GE(mgr.stats().drift_alarms, 1u);
  ASSERT_GE(mgr.swaps().size(), 1u);
  EXPECT_TRUE(mgr.swaps()[0].drift_triggered);
}

TEST(LifecycleManagerTest, SwapSequenceIsDeterministic) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng seed_rng{63};
  make_blobs(400, 4, 3.0, seed_rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  auto run = [&] {
    LifecycleManager mgr{base, 4, fast_lifecycle()};
    Rng rng{64};
    std::vector<int> labels(48, 0);
    std::vector<std::uint64_t> versions;
    for (std::uint64_t w = 0; w < 20; ++w) {
      mgr.maybe_swap(w);
      mgr.observe_window(w, window_at(48, 4, w >= 10 ? 6.0 : 0.0, rng), labels);
      versions.push_back(mgr.version());
    }
    return std::make_pair(versions, serialize_model(mgr.current_model()));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first.back(), 1u) << "scenario never swapped; coverage hole";
}

TEST(LifecycleManagerTest, RejectsUntrainedModel) {
  RandomForest untrained;
  EXPECT_THROW((LifecycleManager{untrained, 4, fast_lifecycle()}), std::logic_error);
}

}  // namespace
}  // namespace ddoshield::ml::lifecycle

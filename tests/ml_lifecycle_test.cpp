// Tests for the model lifecycle subsystem (DESIGN.md §14): streaming
// drift detection, the reservoir replay buffer, the drift→retrain→hot-swap
// manager and its inline retrain, the per-model incremental_update paths,
// and the int8-quantized CNN deployment kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/cnn.hpp"
#include "ml/kmeans.hpp"
#include "ml/lifecycle/drift.hpp"
#include "ml/lifecycle/manager.hpp"
#include "ml/lifecycle/replay_buffer.hpp"
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
  // manager counts as a no-op retrain and serves through.
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
  // Byte-identical models from byte-identical inputs: the lifecycle's
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
  // The manager fine-tunes a deserialize(serialize(base)) clone, never
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
  // exactly as the manager's retrain does.
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
  // trip plus adopt_deployment (the manager's exact retrain path).
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
    // Retrains land in trigger order: every swap carries the next version
    // and lands exactly apply_latency_windows after its trigger.
    for (std::size_t i = 0; i < mgr.swaps().size(); ++i) {
      const SwapRecord& sw = mgr.swaps()[i];
      EXPECT_EQ(sw.version, i + 2) << "swap " << i;
      EXPECT_EQ(sw.window_index, sw.trigger_window + fast_lifecycle().apply_latency_windows)
          << "swap " << i;
    }
    return std::make_pair(versions, serialize_model(mgr.current_model()));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first.back(), 2u) << "scenario swapped fewer than twice; coverage hole";
  for (std::size_t w = 1; w < a.first.size(); ++w) {
    EXPECT_LE(a.first[w] - a.first[w - 1], 1u) << "window " << w;
  }
}

TEST(LifecycleManagerTest, DeliversUpdatedModelsInOrder) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{51};
  make_blobs(300, 4, 3.0, rng, x, y);
  RandomForest base{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  base.fit(x, y);

  // The apply latency outlasts the retrain period, so the second retrain
  // (window 5) is triggered while the first (window 2) still waits for its
  // swap at window 6: two retrained models are pending at once.
  LifecycleConfig cfg = fast_lifecycle();
  cfg.apply_latency_windows = 4;
  LifecycleManager mgr{base, 4, cfg};
  std::vector<std::shared_ptr<const Classifier>> landed;
  DesignMatrix wx;
  std::vector<int> wy;
  for (std::uint64_t w = 0; w < 10; ++w) {
    if (auto swapped = mgr.maybe_swap(w)) landed.push_back(std::move(swapped));
    make_blobs(64, 4, 3.0, rng, wx, wy);
    mgr.observe_window(w, wx, wy);
  }

  ASSERT_EQ(landed.size(), 2u);
  ASSERT_EQ(mgr.swaps().size(), 2u);
  const std::uint64_t triggers[] = {2, 5};
  for (std::size_t i = 0; i < landed.size(); ++i) {
    SCOPED_TRACE(i);
    const SwapRecord& sw = mgr.swaps()[i];
    EXPECT_EQ(sw.version, i + 2);
    EXPECT_EQ(sw.trigger_window, triggers[i]);
    EXPECT_EQ(sw.window_index, triggers[i] + cfg.apply_latency_windows);
    EXPECT_FALSE(sw.drift_triggered);
    ASSERT_NE(landed[i], nullptr);
    EXPECT_TRUE(landed[i]->trained());
    EXPECT_GT(accuracy_on(*landed[i], x, y), 0.85);
  }
  EXPECT_EQ(mgr.version(), 3u);
  EXPECT_EQ(&mgr.current_model(), landed[1].get());

  // Window 8 triggered a third retrain, still pending at window 9.
  const auto stats = mgr.stats();
  EXPECT_EQ(stats.retrains_triggered, 3u);
  EXPECT_EQ(stats.retrains_completed, 2u);
  EXPECT_EQ(stats.retrain_noops, 0u);
  EXPECT_EQ(stats.swaps_applied, 2u);
  EXPECT_EQ(stats.drift_alarms, 0u);
}

TEST(LifecycleManagerTest, SwappedModelEqualsAHandRunRetrain) {
  // The model that lands is exactly clone → adopt → update on the replay
  // snapshot of the trigger window, under the manager's per-version rng
  // stream — computed here by hand, outside the manager.
  auto check = [](Classifier& base) {
    Rng data{65};
    DesignMatrix x{4};
    std::vector<int> y;
    make_blobs(400, 4, 3.0, data, x, y);
    base.fit(x, y);

    const LifecycleConfig cfg = fast_lifecycle();
    LifecycleManager mgr{base, 4, cfg};
    std::vector<int> labels(64);
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 2);
    std::vector<std::uint8_t> expected;
    std::uint64_t trigger = 0;
    for (std::uint64_t w = 0; w < 12; ++w) {
      if (auto swapped = mgr.maybe_swap(w)) {
        EXPECT_EQ(w, trigger + cfg.apply_latency_windows);
        EXPECT_EQ(serialize_model(*swapped), expected);
        return;
      }
      mgr.observe_window(w, window_at(64, 4, 1.5, data), labels);
      if (expected.empty() && mgr.stats().retrains_triggered == 1) {
        trigger = w;
        DesignMatrix rx;
        std::vector<int> ry;
        mgr.replay().snapshot(rx, ry);
        auto clone = deserialize_model(serialize_model(base));
        clone->adopt_deployment(base);
        Rng rng = Rng{cfg.seed}.fork("lifecycle-manager").fork_stream("retrain", 2);
        EXPECT_TRUE(clone->incremental_update(rx, ry, rng));
        expected = serialize_model(*clone);
      }
    }
    ADD_FAILURE() << base.name() << ": no swap landed";
  };
  RandomForest rf{RandomForestConfig{.n_estimators = 5, .max_samples_per_tree = 100}};
  KMeansDetector kmeans{KMeansConfig{.initial_clusters = 8}};
  // fine_tune_epochs differs from the default that a deserialized clone
  // loads with, so a retrain that skipped adopt_deployment would differ.
  Cnn1D cnn{CnnConfig{.filters = 2, .hidden = 8, .epochs = 1, .fine_tune_epochs = 1}};
  Classifier* const bases[] = {&rf, &kmeans, &cnn};
  for (Classifier* base : bases) {
    SCOPED_TRACE(base->name());
    check(*base);
  }
}

TEST(LifecycleManagerTest, ModelWithoutIncrementalPathIsANoop) {
  DesignMatrix x{4};
  std::vector<int> y;
  Rng rng{66};
  make_blobs(200, 4, 3.0, rng, x, y);
  LinearSvm base;
  base.fit(x, y);

  const LifecycleConfig cfg = fast_lifecycle();
  LifecycleManager mgr{base, 4, cfg};
  std::vector<int> labels(64, 1);
  // retrain_every = 3: the trigger fires at window 2 and its swap is due
  // apply_latency_windows later.
  const std::uint64_t apply = 2 + cfg.apply_latency_windows;
  for (std::uint64_t w = 0; w < apply; ++w) {
    EXPECT_EQ(mgr.maybe_swap(w), nullptr);
    mgr.observe_window(w, window_at(64, 4, 0.0, rng), labels);
  }
  EXPECT_EQ(mgr.stats().retrains_triggered, 1u);
  EXPECT_EQ(mgr.stats().retrains_completed, 0u);  // pending until it is due

  EXPECT_EQ(mgr.maybe_swap(apply), nullptr);
  EXPECT_EQ(mgr.version(), 1u);
  EXPECT_EQ(&mgr.current_model(), &base);
  const auto stats = mgr.stats();
  EXPECT_EQ(stats.retrains_completed, 1u);
  EXPECT_EQ(stats.retrain_noops, 1u);
  EXPECT_EQ(stats.swaps_applied, 0u);
  EXPECT_TRUE(mgr.swaps().empty());
}

TEST(LifecycleManagerTest, RejectsUntrainedModel) {
  RandomForest untrained;
  EXPECT_THROW((LifecycleManager{untrained, 4, fast_lifecycle()}), std::logic_error);
}

}  // namespace
}  // namespace ddoshield::ml::lifecycle

// Integration tests for the testbed orchestration and the experiment
// pipeline (scenario -> deploy -> infect -> attack -> capture -> train ->
// detect).
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "ml/random_forest.hpp"

namespace ddoshield::core {
namespace {

using botnet::AttackType;
using util::SimTime;

Scenario small_scenario(std::uint64_t seed = 1) {
  Scenario s;
  s.seed = seed;
  s.device_count = 4;
  s.duration = SimTime::seconds(30);
  s.infection_start = SimTime::seconds(1);
  schedule_attack_cycle(s, SimTime::seconds(10), SimTime::seconds(28), SimTime::seconds(4),
                        SimTime::seconds(2),
                        {AttackType::kSynFlood, AttackType::kAckFlood, AttackType::kUdpFlood},
                        100.0);
  return s;
}

// --------------------------------------------------------------------------
// Scenario helpers
// --------------------------------------------------------------------------

TEST(ScenarioTest, AttackCycleSchedulesRotatingBursts) {
  Scenario s;
  schedule_attack_cycle(s, SimTime::seconds(10), SimTime::seconds(40), SimTime::seconds(5),
                        SimTime::seconds(5), {AttackType::kSynFlood, AttackType::kAckFlood},
                        200.0);
  ASSERT_EQ(s.attacks.size(), 3u);
  EXPECT_EQ(s.attacks[0].start, SimTime::seconds(10));
  EXPECT_EQ(s.attacks[0].type, AttackType::kSynFlood);
  EXPECT_EQ(s.attacks[1].start, SimTime::seconds(20));
  EXPECT_EQ(s.attacks[1].type, AttackType::kAckFlood);
  EXPECT_EQ(s.attacks[2].start, SimTime::seconds(30));
  EXPECT_EQ(s.attacks[2].type, AttackType::kSynFlood);  // rotation wraps
  for (const auto& a : s.attacks) {
    EXPECT_EQ(a.duration, SimTime::seconds(5));
    EXPECT_DOUBLE_EQ(a.packets_per_second_per_bot, 200.0);
  }
}

TEST(ScenarioTest, AttackCycleValidation) {
  Scenario s;
  EXPECT_THROW(schedule_attack_cycle(s, {}, SimTime::seconds(10), SimTime::seconds(1),
                                     {}, {}, 100.0),
               std::invalid_argument);
  EXPECT_THROW(schedule_attack_cycle(s, {}, SimTime::seconds(10), SimTime::seconds(0),
                                     {}, {AttackType::kSynFlood}, 100.0),
               std::invalid_argument);
}

TEST(ScenarioTest, CanonicalScenariosAreWellFormed) {
  const Scenario train = training_scenario();
  EXPECT_GT(train.duration, SimTime::seconds(60));
  EXPECT_FALSE(train.attacks.empty());
  // The training capture ends with a benign-only tail.
  const auto& last = train.attacks.back();
  EXPECT_LT(last.start + last.duration, train.duration);
  // Training timestamps are absolute (exported-pcap convention).
  EXPECT_GT(train.capture_clock_offset, SimTime::seconds(0));

  const Scenario detect = detection_scenario();
  EXPECT_FALSE(detect.attacks.empty());
  // Detection runs bursty: gaps exist between consecutive attacks.
  ASSERT_GE(detect.attacks.size(), 2u);
  EXPECT_GT(detect.attacks[1].start, detect.attacks[0].start + detect.attacks[0].duration);
}

// --------------------------------------------------------------------------
// Testbed
// --------------------------------------------------------------------------

TEST(TestbedTest, DeployCreatesAllContainers) {
  Testbed tb{small_scenario()};
  tb.deploy();
  auto names = tb.runtime().list();
  EXPECT_EQ(names.size(), 4u + 3u);  // tserver, attacker, ids + 4 devs
  EXPECT_TRUE(tb.runtime().exists("tserver"));
  EXPECT_TRUE(tb.runtime().exists("attacker"));
  EXPECT_TRUE(tb.runtime().exists("ids"));
  EXPECT_TRUE(tb.runtime().exists("dev_0"));
  EXPECT_EQ(tb.runtime().running_count(), 7u);
  EXPECT_THROW(tb.deploy(), std::logic_error);
}

TEST(TestbedTest, InfectionCompromisesVulnerableDevices) {
  Testbed tb{small_scenario()};
  tb.deploy();
  tb.run_until(SimTime::seconds(25));
  EXPECT_EQ(tb.infected_devices(), 4u);
  EXPECT_EQ(tb.connected_bots(), 4u);
}

TEST(TestbedTest, PatchedDevicesStayClean) {
  Scenario s = small_scenario();
  s.vulnerable_fraction = 0.0;
  Testbed tb{s};
  tb.deploy();
  tb.run_until(SimTime::seconds(25));
  EXPECT_EQ(tb.infected_devices(), 0u);
  EXPECT_EQ(tb.connected_bots(), 0u);
}

TEST(TestbedTest, BenignTrafficFlowsWithoutAttacks) {
  Scenario s = small_scenario();
  s.attacks.clear();
  Testbed tb{s};
  tb.deploy();
  tb.run();
  EXPECT_GT(tb.benign_bytes_delivered(), 100'000u);
  EXPECT_GT(tb.benign_completions(), 10u);
  EXPECT_GT(tb.http_server().requests_served(), 0u);
  EXPECT_GT(tb.video_server().chunks_sent(), 0u);
  EXPECT_GT(tb.ftp_server().transfers_completed(), 0u);
}

TEST(TestbedTest, DatasetRecordsBothClasses) {
  Testbed tb{small_scenario()};
  tb.deploy();
  tb.record_dataset();
  tb.run();
  const auto& ds = tb.dataset();
  EXPECT_GT(ds.size(), 1000u);
  EXPECT_GT(ds.malicious_count(), 100u);
  EXPECT_GT(ds.benign_count(), 100u);
  const auto hist = ds.origin_histogram();
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kMiraiSynFlood));
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kMiraiAckFlood));
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kMiraiUdpFlood));
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kHttp));
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kVideo));
  EXPECT_TRUE(hist.contains(net::TrafficOrigin::kFtp));
}

TEST(TestbedTest, ClockOffsetShiftsDatasetTimestamps) {
  Scenario s = small_scenario();
  s.capture_clock_offset = SimTime::seconds(500);
  Testbed tb{s};
  tb.deploy();
  tb.record_dataset();
  tb.run();
  ASSERT_FALSE(tb.dataset().empty());
  EXPECT_GE(tb.dataset().records().front().timestamp, SimTime::seconds(500));
}

TEST(TestbedTest, AttacksDegradeBenignService) {
  // Same seed with and without a heavy attack; benign goodput must drop.
  Scenario calm = small_scenario(42);
  calm.attacks.clear();
  Testbed tb_calm{calm};
  tb_calm.deploy();
  tb_calm.run();

  Scenario stormy = small_scenario(42);
  stormy.attacks.clear();
  schedule_attack_cycle(stormy, SimTime::seconds(8), SimTime::seconds(30),
                        SimTime::seconds(22), SimTime::seconds(0),
                        {AttackType::kSynFlood}, 2000.0);
  stormy.attacks[0].spoof_sources = true;
  Testbed tb_storm{stormy};
  tb_storm.deploy();
  tb_storm.run();

  EXPECT_LT(tb_storm.benign_completions(), tb_calm.benign_completions());
}

TEST(TestbedTest, ChurnTakesDevicesOffline) {
  Scenario s = small_scenario();
  s.attacks.clear();
  s.churn.events_per_device_per_second = 0.05;
  s.churn.down_time = SimTime::seconds(4);
  Testbed tb{s};
  tb.deploy();
  const obs::TimeSeries& bots = *tb.sample_throughput_every(SimTime::seconds(1))
                                     .store()
                                     .find("testbed.connected_bots");
  tb.run();
  // With churn, at least one sample should show fewer connected bots than
  // the infected count (bots reconnect after link-down).
  bool dip = false;
  bots.for_each([&](std::uint64_t, double connected) {
    if (connected < static_cast<double>(tb.infected_devices())) dip = true;
  });
  EXPECT_TRUE(dip);
  EXPECT_EQ(bots.points(), 30u);
}

TEST(TestbedTest, ThroughputSamplerTracksGoodput) {
  Scenario s = small_scenario();
  s.attacks.clear();
  Testbed tb{s};
  tb.deploy();
  const obs::TimeSeries& goodput = *tb.sample_throughput_every(SimTime::seconds(1))
                                        .store()
                                        .find("testbed.benign_goodput_bps");
  tb.run();
  EXPECT_GT(goodput.total(), 0.0);
}

TEST(TestbedTest, DeployIdsRequiresDeploy) {
  Testbed tb{small_scenario()};
  ml::RandomForest rf;
  EXPECT_THROW(tb.deploy_ids(rf), std::logic_error);
}

// --------------------------------------------------------------------------
// Pipeline
// --------------------------------------------------------------------------

struct PipelineFixture : ::testing::Test {
  // Generation + training is expensive; share across tests in the suite.
  static GenerationResult& generation() {
    static GenerationResult g = run_generation(small_scenario(7));
    return g;
  }
  static TrainedModels& models() {
    static TrainedModels m = train_all_models(generation().dataset);
    return m;
  }
};

TEST_F(PipelineFixture, GenerationProducesBalancedDataset) {
  auto& g = generation();
  EXPECT_EQ(g.infected_devices, 4u);
  EXPECT_GT(g.peak_connected_bots, 0u);
  EXPECT_GT(g.dataset.size(), 1000u);
  EXPECT_GT(g.dataset.balance_ratio(), 0.3);
  EXPECT_LT(g.dataset.balance_ratio(), 4.0);
}

TEST_F(PipelineFixture, TrainingProducesThreeModels) {
  auto& m = models();
  EXPECT_EQ(m.reports.size(), 3u);
  for (const char* name : {"rf", "kmeans", "cnn"}) {
    EXPECT_TRUE(m.get(name).trained());
    const ModelReport& report = m.report_of(name);
    EXPECT_GT(report.test.accuracy(), 0.7) << name;
    EXPECT_GT(report.model_file_bytes, 0u);
    EXPECT_GE(report.fit_seconds, 0.0);
  }
  EXPECT_THROW(m.get("svm"), std::invalid_argument);
  EXPECT_THROW(m.report_of("svm"), std::invalid_argument);
  // K-Means models are tiny compared to RF and CNN (Table II shape).
  EXPECT_LT(m.report_of("kmeans").model_file_bytes,
            m.report_of("rf").model_file_bytes / 10);
  EXPECT_LT(m.report_of("kmeans").model_file_bytes,
            m.report_of("cnn").model_file_bytes / 10);
}

TEST_F(PipelineFixture, DetectionProducesWindowsAndSummary) {
  Scenario det = small_scenario(8);
  const DetectionResult result = run_detection(det, models().get("rf"));
  EXPECT_EQ(result.model, "rf");
  EXPECT_GT(result.summary.windows, 10u);
  EXPECT_GT(result.summary.packets, 1000u);
  EXPECT_GT(result.summary.average_accuracy, 0.5);
  EXPECT_LE(result.summary.average_accuracy, 1.0);
  EXPECT_EQ(result.windows.size(), result.summary.windows);
  EXPECT_GT(result.model_size_kb, 0.0);
  EXPECT_GT(result.summary.cpu_percent, 0.0);
  EXPECT_GT(result.summary.memory_kb, 0.0);
}

TEST_F(PipelineFixture, DetectionIsDeterministicPerScenarioSeed) {
  Scenario det = small_scenario(9);
  const DetectionResult a = run_detection(det, models().get("kmeans"));
  const DetectionResult b = run_detection(det, models().get("kmeans"));
  EXPECT_DOUBLE_EQ(a.summary.average_accuracy, b.summary.average_accuracy);
  EXPECT_EQ(a.summary.packets, b.summary.packets);
}

TEST_F(PipelineFixture, ToDesignMatrixPreservesShape) {
  features::FeatureMatrix fm;
  fm.rows.push_back(features::FeatureRow{});
  fm.rows.push_back(features::FeatureRow{});
  fm.labels = {0, 1};
  ml::DesignMatrix x;
  std::vector<int> y;
  to_design_matrix(fm, x, y);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), features::kFeatureCount);
  EXPECT_EQ(y, fm.labels);
}

TEST_F(PipelineFixture, SkewServedClassifierPermutesInputs) {
  const auto& rf = models().get("rf");
  SkewServedClassifier skewed{rf};
  EXPECT_EQ(skewed.name(), "rf");
  EXPECT_TRUE(skewed.trained());
  EXPECT_EQ(skewed.parameter_bytes(), rf.parameter_bytes());

  // Identity rows (all equal values) predict identically through the skew;
  // a row with distinct values may not.
  features::FeatureRow uniform{};
  uniform.fill(1.0);
  EXPECT_EQ(skewed.predict(uniform), rf.predict(uniform));

  EXPECT_THROW(skewed.predict(std::vector<double>{1.0, 2.0}), std::invalid_argument);
  ml::DesignMatrix x{2};
  EXPECT_THROW(skewed.fit(x, {}), std::logic_error);
  util::ByteWriter w;
  util::ByteReader r{w.bytes()};
  EXPECT_THROW(skewed.load(r), std::logic_error);
}

TEST(TrainAllModelsTest, RejectsEmptyDataset) {
  capture::Dataset empty;
  EXPECT_THROW(train_all_models(empty), std::invalid_argument);
}

}  // namespace
}  // namespace ddoshield::core

// fuzz_smoke: the seeded scenario fuzzer across 25 fixed seeds with every
// invariant armed, plus the replay proof — re-running a seed produces a
// byte-identical event log.
//
// Each seed expands into a randomized topology, benign/Mirai traffic mix,
// and fault schedule, and drives the real Testbed/TcpHost/RealTimeIds
// pipeline. CI runs this suite both plain and under ASan/UBSan.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <vector>

#include "core/shard_workload.hpp"
#include "features/schema.hpp"
#include "ml/random_forest.hpp"
#include "testkit/fuzzer.hpp"
#include "util/rng.hpp"

namespace ddoshield::testkit {
namespace {

// A deliberately tiny forest trained on separable synthetic rows: the fuzz
// runs exercise the IDS window/inference plumbing, not detection quality.
const ml::Classifier& tiny_model() {
  static ml::RandomForest* model = [] {
    ml::RandomForestConfig cfg;
    cfg.n_estimators = 5;
    cfg.tree.max_depth = 6;
    cfg.max_samples_per_tree = 200;
    auto* rf = new ml::RandomForest{cfg};

    ml::DesignMatrix x{features::kFeatureCount};
    std::vector<int> y;
    util::Rng rng{42};
    for (int i = 0; i < 400; ++i) {
      const int label = i % 2;
      std::array<double, features::kFeatureCount> row;
      for (auto& v : row) v = rng.uniform() + 2.0 * label;
      x.add_row(row);
      y.push_back(label);
    }
    rf->fit(x, y);
    return rf;
  }();
  return *model;
}

FuzzOptions smoke_options() {
  FuzzOptions opts;
  opts.ids_model = &tiny_model();
  // CI's mitigation fuzz configuration runs the same seeds with the closed
  // detect→defend loop active, so enforcement churn (rule install/expiry,
  // SYN cookies, quarantine) is fuzzed under the same invariants. An empty
  // value counts as unset so a matrix-driven env var can expand to ''.
  const char* mitigate_env = std::getenv("DDOSHIELD_FUZZ_MITIGATE");
  opts.enable_mitigation = mitigate_env != nullptr && mitigate_env[0] != '\0';
  // CI's lifecycle fuzz configuration re-runs the seed range with drift
  // detection, retraining, and hot-swap armed.
  const char* lifecycle_env = std::getenv("DDOSHIELD_FUZZ_LIFECYCLE");
  opts.enable_lifecycle = lifecycle_env != nullptr && lifecycle_env[0] != '\0';
  return opts;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, InvariantsHoldEndToEnd) {
  Fuzzer fuzzer{smoke_options()};
  const FuzzResult result = fuzzer.run(GetParam());

  EXPECT_TRUE(result.ok()) << result.invariants.summary();
  EXPECT_GT(result.packets_tapped, 0u) << "scenario generated no victim traffic";
  EXPECT_GT(result.invariants.packets_checked, 0u);
  EXPECT_GT(result.ids_windows, 0u);
  EXPECT_FALSE(result.log.empty());
}

INSTANTIATE_TEST_SUITE_P(TwentyFiveSeeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1, 26));

// The replay proof: the acceptance bar for the whole harness. Two runs of
// the same seed — fresh Testbed, fresh Simulator, same process-global
// metrics registry — must produce byte-identical logs.
TEST(FuzzReplay, SameSeedReplaysByteIdentical) {
  Fuzzer fuzzer{smoke_options()};
  for (const std::uint64_t seed : {7ull, 13ull, 21ull}) {
    const FuzzResult first = fuzzer.run(seed);
    const FuzzResult second = fuzzer.run(seed);
    ASSERT_FALSE(first.log.empty());
    ASSERT_EQ(first.log.joined(), second.log.joined()) << "seed " << seed;
    EXPECT_EQ(first.log.digest(), second.log.digest());
    EXPECT_EQ(first.events_executed, second.events_executed);
    EXPECT_EQ(first.packets_tapped, second.packets_tapped);
  }
}

// Regression pins for bugs the fuzzer surfaced on first contact, kept as
// named tests so the seeds stay covered even if the 25-seed range moves:
//  * seeds 1/24: TelemetrySensor dialed synchronously inside deploy(),
//    putting SYNs on the wire before the simulator ran — observers missed
//    the handshake ("data before handshake") and the link conservation
//    baseline was snapshot with packets already in flight;
//  * seeds 18/22: endpoints that abort (device crash) keep answering the
//    peer's retransmissions with RSTs — legal TCP the first checker
//    version misread as "segment after RST".
class FuzzRegressionSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzRegressionSeeds, OnceFailingSeedStaysGreen) {
  Fuzzer fuzzer{smoke_options()};
  const FuzzResult result = fuzzer.run(GetParam());
  EXPECT_TRUE(result.ok()) << result.invariants.summary();
}

INSTANTIATE_TEST_SUITE_P(SurfacedBugs, FuzzRegressionSeeds,
                         ::testing::Values(1ull, 18ull, 22ull, 24ull));

// Always-on (env-independent) coverage of the mitigation path: the same
// invariants hold with enforcement active, and the event log — now also
// carrying mitigation action lines — still replays byte for byte.
class FuzzMitigation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzMitigation, InvariantsHoldAndReplayIsByteIdentical) {
  FuzzOptions opts;
  opts.ids_model = &tiny_model();
  opts.enable_mitigation = true;
  Fuzzer fuzzer{opts};

  const FuzzResult first = fuzzer.run(GetParam());
  EXPECT_TRUE(first.ok()) << first.invariants.summary();
  EXPECT_GT(first.ids_windows, 0u);

  const FuzzResult second = fuzzer.run(GetParam());
  ASSERT_EQ(first.log.joined(), second.log.joined()) << "seed " << GetParam();
  EXPECT_EQ(first.mitigation_actions, second.mitigation_actions);
}

INSTANTIATE_TEST_SUITE_P(ClosedLoop, FuzzMitigation, ::testing::Values(7ull, 13ull));

// Always-on (env-independent) coverage of the model lifecycle: with the
// aggressive fuzz cadence a model hot-swap must actually land mid-run, and
// the event log — now carrying per-window model versions, swap lines, and
// the lifecycle summary — must replay byte for byte (the swap schedule is
// sim-domain data, so a replay switches models at the same window
// boundary however long a retrain takes).
class FuzzLifecycle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzLifecycle, HotSwapReplaysByteIdentical) {
  FuzzOptions opts;
  opts.ids_model = &tiny_model();
  opts.enable_lifecycle = true;
  Fuzzer fuzzer{opts};

  const FuzzResult first = fuzzer.run(GetParam());
  EXPECT_TRUE(first.ok()) << first.invariants.summary();
  EXPECT_GT(first.ids_windows, 0u);
  EXPECT_GE(first.lifecycle_retrains, 1u) << "seed never triggered a retrain";
  EXPECT_GE(first.lifecycle_swaps, 1u) << "seed never hot-swapped; coverage hole";

  const FuzzResult second = fuzzer.run(GetParam());
  ASSERT_EQ(first.log.joined(), second.log.joined()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(HotSwapSeeds, FuzzLifecycle, ::testing::Values(7ull, 13ull));

// Lifecycle + mitigation together: the ActionLog must carry the model_swap
// audit line at the same position in both runs, and enforcement decisions
// made across a swap must replay exactly.
TEST(FuzzLifecycle, ClosedLoopWithHotSwapReplaysByteIdentical) {
  FuzzOptions opts;
  opts.ids_model = &tiny_model();
  opts.enable_lifecycle = true;
  opts.enable_mitigation = true;
  Fuzzer fuzzer{opts};
  const FuzzResult first = fuzzer.run(7);
  EXPECT_TRUE(first.ok()) << first.invariants.summary();
  EXPECT_GE(first.lifecycle_swaps, 1u);
  const FuzzResult second = fuzzer.run(7);
  ASSERT_EQ(first.log.joined(), second.log.joined());
  EXPECT_EQ(first.mitigation_actions, second.mitigation_actions);
}

TEST(FuzzReplay, DifferentSeedsDiverge) {
  Fuzzer fuzzer{smoke_options()};
  const FuzzResult a = fuzzer.run(1001);
  const FuzzResult b = fuzzer.run(1002);
  EXPECT_NE(a.log.digest(), b.log.digest());
}

// --------------------------------------------------------------------------
// ShardFuzz: cross-shard-count equivalence A/B suite.
//
// Each seed expands (as a pure function of the seed) into a clustered
// fleet workload, runs it single-shard as the baseline, then re-runs the
// identical workload at every shard count in the sweep set. The sharded
// runs must reproduce the baseline's commutative traffic digests, receive
// counts, and byte-identical send-side ActionLog, and every run must hold
// per-link packet conservation and full channel drain. The sweep set
// defaults to {2, 4, 8} and can be overridden with DDOSHIELD_SHARD_SET
// (comma-separated), which the CI shard-determinism job uses to pin single
// shard counts per matrix leg.
// --------------------------------------------------------------------------

core::ShardWorkloadConfig shard_workload_for_seed(std::uint64_t seed) {
  util::Rng rng{seed ^ 0x5ca1ab1e0ddba11ULL};
  core::ShardWorkloadConfig cfg;
  cfg.cluster_count = 4 + rng.uniform_u64(5);  // 4..8, fixed across shard counts
  cfg.device_count =
      cfg.cluster_count * (2 + static_cast<std::size_t>(rng.uniform_u64(5)));
  cfg.seed = seed;
  cfg.upstream_pps = 20.0 + rng.uniform(0.0, 40.0);
  cfg.gossip_pps = 10.0 + rng.uniform(0.0, 25.0);
  cfg.duration = util::SimTime::millis(300 + static_cast<std::int64_t>(rng.uniform_u64(150)));
  cfg.drain_margin = util::SimTime::millis(120);
  return cfg;
}

std::vector<std::size_t> shard_sweep_set() {
  const char* env = std::getenv("DDOSHIELD_SHARD_SET");
  if (env == nullptr || env[0] == '\0') return {2, 4, 8};
  std::vector<std::size_t> out;
  std::size_t value = 0;
  bool have_digit = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      value = value * 10 + static_cast<std::size_t>(*p - '0');
      have_digit = true;
    } else {
      if (have_digit && value > 0) out.push_back(value);
      value = 0;
      have_digit = false;
      if (*p == '\0') break;
    }
  }
  return out.empty() ? std::vector<std::size_t>{2, 4, 8} : out;
}

class ShardFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardFuzz, ShardCountsAreObservationallyEquivalent) {
  core::ShardWorkloadConfig cfg = shard_workload_for_seed(GetParam());
  const core::ShardWorkloadResult baseline = core::run_shard_workload(cfg);
  ASSERT_TRUE(baseline.conservation_ok) << baseline.conservation_error;
  ASSERT_GT(baseline.tserver_rx_packets, 0u);
  ASSERT_FALSE(baseline.action_log.empty());

  for (const std::size_t shards : shard_sweep_set()) {
    cfg.shard_count = shards;
    const core::ShardWorkloadResult run = core::run_shard_workload(cfg);
    EXPECT_TRUE(run.conservation_ok)
        << "shards=" << shards << ": " << run.conservation_error;
    EXPECT_EQ(run.digest_tserver, baseline.digest_tserver) << "shards=" << shards;
    EXPECT_EQ(run.digest_devices, baseline.digest_devices) << "shards=" << shards;
    EXPECT_EQ(run.tserver_rx_packets, baseline.tserver_rx_packets)
        << "shards=" << shards;
    EXPECT_EQ(run.device_rx_packets, baseline.device_rx_packets)
        << "shards=" << shards;
    EXPECT_EQ(run.upstream_sent, baseline.upstream_sent) << "shards=" << shards;
    EXPECT_EQ(run.gossip_sent, baseline.gossip_sent) << "shards=" << shards;
    EXPECT_EQ(run.action_log, baseline.action_log) << "shards=" << shards;
    if (shards > 1) {
      EXPECT_GT(run.channel_stats.shipped, 0u) << "shards=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, ShardFuzz, ::testing::Range<std::uint64_t>(1, 11));

// Pinned shard regression seeds — edge configurations kept green by name:
//  * channel_capacity 8 forces the mutex overflow spill on nearly every
//    window, so ring-vs-spill drain order is exercised under real traffic;
//  * shard counts that do not divide the cluster count (3, 5) leave shards
//    with uneven cluster loads, including idle shards that only barrier.
TEST(ShardFuzzRegression, TinyChannelsForceOverflowAndStayEquivalent) {
  core::ShardWorkloadConfig cfg = shard_workload_for_seed(3);
  // A one-slot ring overflows whenever two packets share a 2ms window on
  // one trunk direction; the dense rates make that happen constantly.
  cfg.channel_capacity = 1;
  cfg.upstream_pps = 200.0;
  cfg.gossip_pps = 60.0;
  const core::ShardWorkloadResult baseline = core::run_shard_workload(cfg);
  cfg.shard_count = 4;
  const core::ShardWorkloadResult sharded = core::run_shard_workload(cfg);
  ASSERT_TRUE(sharded.conservation_ok) << sharded.conservation_error;
  EXPECT_GT(sharded.channel_stats.overflowed, 0u)
      << "capacity 8 was expected to overflow; the spill path went untested";
  EXPECT_EQ(sharded.digest_tserver, baseline.digest_tserver);
  EXPECT_EQ(sharded.digest_devices, baseline.digest_devices);
  EXPECT_EQ(sharded.action_log, baseline.action_log);
}

TEST(ShardFuzzRegression, NonDividingShardCountsStayEquivalent) {
  core::ShardWorkloadConfig cfg = shard_workload_for_seed(6);
  const core::ShardWorkloadResult baseline = core::run_shard_workload(cfg);
  for (const std::size_t shards : {std::size_t{3}, std::size_t{5}}) {
    cfg.shard_count = shards;
    const core::ShardWorkloadResult run = core::run_shard_workload(cfg);
    ASSERT_TRUE(run.conservation_ok)
        << "shards=" << shards << ": " << run.conservation_error;
    EXPECT_EQ(run.digest_tserver, baseline.digest_tserver) << "shards=" << shards;
    EXPECT_EQ(run.digest_devices, baseline.digest_devices) << "shards=" << shards;
    EXPECT_EQ(run.action_log, baseline.action_log) << "shards=" << shards;
  }
}

// --------------------------------------------------------------------------
// ShardIdsFuzz: the ShardFuzz A/B matrix with the detection pipeline armed.
//
// The seeds re-run with flood devices, per-cluster egress taps (each seed
// draws its own tap batch capacity), windowed scoring, and verdict-driven
// edge mitigation, and the IDS equality surface (feature-row digest,
// verdict digest, ActionLog bytes) must be byte-identical between the
// single-shard baseline and every count in shard_sweep_set() (2, 4 and 8
// unless DDOSHIELD_SHARD_SET names others) — the end-to-end check behind
// DESIGN.md §15's determinism contract.
// --------------------------------------------------------------------------

core::ShardWorkloadConfig shard_ids_workload_for_seed(std::uint64_t seed) {
  core::ShardWorkloadConfig cfg = shard_workload_for_seed(seed);
  util::Rng rng{seed ^ 0x1d5f00dfeedULL};
  cfg.flood_device_count = 1 + rng.uniform_u64(cfg.device_count / 2);
  cfg.flood_pps = 300.0 + rng.uniform(0.0, 500.0);
  cfg.ids_enabled = true;
  cfg.ids.tap_batch_capacity = 16 + rng.uniform_u64(256);
  // Keep the ladder live at these rates (default 64 would barely trip).
  cfg.ids.mitigation_config.min_packets = 16;
  return cfg;
}

class ShardIdsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardIdsFuzz, DetectionIsByteIdenticalAcrossShardCounts) {
  core::ShardWorkloadConfig cfg = shard_ids_workload_for_seed(GetParam());
  const core::ShardWorkloadResult baseline = core::run_shard_workload(cfg);
  ASSERT_TRUE(baseline.conservation_ok) << baseline.conservation_error;
  ASSERT_GT(baseline.ids_windows, 0u);
  ASSERT_GT(baseline.ids_truth, 0u);
  EXPECT_EQ(baseline.ids_truth, baseline.flood_sent);
  EXPECT_EQ(baseline.ids_rows,
            baseline.upstream_sent + baseline.gossip_sent + baseline.flood_sent);

  for (const std::size_t shards : shard_sweep_set()) {
    cfg.shard_count = shards;
    const core::ShardWorkloadResult run = core::run_shard_workload(cfg);
    EXPECT_TRUE(run.conservation_ok)
        << "shards=" << shards << ": " << run.conservation_error;
    EXPECT_EQ(run.ids_rows, baseline.ids_rows) << "shards=" << shards;
    EXPECT_EQ(run.ids_truth, baseline.ids_truth) << "shards=" << shards;
    EXPECT_EQ(run.ids_predicted, baseline.ids_predicted) << "shards=" << shards;
    EXPECT_EQ(run.ids_windows, baseline.ids_windows) << "shards=" << shards;
    EXPECT_EQ(run.ids_row_digest, baseline.ids_row_digest) << "shards=" << shards;
    EXPECT_EQ(run.ids_verdict_digest, baseline.ids_verdict_digest)
        << "shards=" << shards;
    EXPECT_EQ(run.ids_action_log, baseline.ids_action_log) << "shards=" << shards;
    EXPECT_EQ(run.action_log, baseline.action_log) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, ShardIdsFuzz, ::testing::Range<std::uint64_t>(1, 11));

TEST(FuzzScenarioGeneration, IsPureFunctionOfSeed) {
  const core::Scenario a = Fuzzer::generate_scenario(77);
  const core::Scenario b = Fuzzer::generate_scenario(77);
  EXPECT_EQ(a.device_count, b.device_count);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    EXPECT_EQ(a.attacks[i].start, b.attacks[i].start);
    EXPECT_EQ(a.attacks[i].type, b.attacks[i].type);
  }
  EXPECT_EQ(a.topology.access_link.rate_bps, b.topology.access_link.rate_bps);

  // And the knobs actually vary across seeds.
  bool any_difference = false;
  for (std::uint64_t s = 1; s <= 10 && !any_difference; ++s) {
    const core::Scenario other = Fuzzer::generate_scenario(s);
    any_difference = other.device_count != a.device_count || other.duration != a.duration;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ddoshield::testkit

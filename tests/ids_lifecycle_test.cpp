// RealTimeIds × model lifecycle integration: hot-swaps land, verdict
// events carry monotone model versions, the ids.model_version gauge and
// lifecycle.* counters reach the snapshot, and the ResourceMeter degrades
// to getrusage when procfs is off the table.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "capture/tap.hpp"
#include "container/runtime.hpp"
#include "features/schema.hpp"
#include "ids/realtime_ids.hpp"
#include "ids/resource_meter.hpp"
#include "ml/random_forest.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::ids {
namespace {

using util::Rng;
using util::SimTime;

// A real (serializable, retrainable) forest: the lifecycle serializes the
// served model into retrain jobs, so the stub models of the other IDS
// tests don't work here.
const ml::RandomForest& tiny_forest() {
  static ml::RandomForest* model = [] {
    ml::RandomForestConfig cfg;
    cfg.n_estimators = 5;
    cfg.tree.max_depth = 6;
    cfg.max_samples_per_tree = 200;
    auto* rf = new ml::RandomForest{cfg};
    ml::DesignMatrix x{features::kFeatureCount};
    std::vector<int> y;
    Rng rng{42};
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

ml::lifecycle::LifecycleConfig fast_lifecycle() {
  ml::lifecycle::LifecycleConfig cfg;
  cfg.enabled = true;
  cfg.retrain_every_windows = 2;
  cfg.cooldown_windows = 1;
  cfg.apply_latency_windows = 1;
  cfg.replay_capacity_rows = 1024;
  cfg.min_replay_rows = 16;
  cfg.drift.baseline_windows = 2;
  return cfg;
}

/// Sender→victim world, rebuilt per run so every run starts from identical
/// state, with enough traffic per window to feed the replay buffer past
/// min_replay_rows.
struct World {
  net::Network net;
  net::Node* sender = nullptr;
  net::Node* victim = nullptr;
  container::ContainerRuntime runtime;
  container::Container* ids_box = nullptr;
  capture::PacketTap tap;

  World() {
    sender = &net.add_node("sender", net::Ipv4Address{10, 0, 0, 1});
    victim = &net.add_node("victim", net::Ipv4Address{10, 0, 0, 2});
    net.add_link(*sender, *victim, net::LinkConfig{});
    sender->set_default_route(0);
    victim->set_default_route(0);
    tap.attach_to(*victim);
    runtime.register_image({"test/ids", "1", nullptr});
    ids_box = &runtime.create("ids", "test/ids:1");
    ids_box->attach_node(*victim);
    ids_box->start();
  }

  void emit(std::uint16_t dst_port, net::TrafficOrigin origin) {
    net::Packet p;
    p.dst = victim->address();
    p.dst_port = dst_port;
    p.proto = net::IpProto::kUdp;
    p.payload_bytes = 64;
    p.origin = origin;
    sender->send(std::move(p));
  }

  struct RunResult {
    std::vector<WindowReport> reports;
    std::vector<std::uint64_t> event_versions;
    std::uint64_t final_version = 0;
    ml::lifecycle::LifecycleManager::Stats stats;
  };

  RunResult run_scenario() {
    IdsConfig config;
    config.lifecycle = fast_lifecycle();
    RealTimeIds ids{*ids_box, Rng{1}, tiny_forest(), config};
    RunResult out;
    ids.set_verdict_sink([&out](const WindowVerdictEvent& event) {
      out.event_versions.push_back(event.model_version);
    });
    ids.attach_tap(tap);
    ids.start();
    // 8 windows × 24 packets: every window clears min_replay_rows on its
    // own, so the periodic retrain cadence fires repeatedly.
    for (int w = 0; w < 8; ++w) {
      for (int i = 0; i < 24; ++i) {
        const bool attack = i % 2 == 0;
        net.simulator().schedule(
            SimTime::millis(static_cast<std::int64_t>(w) * 1000 + 100 + i * 30), [=, this] {
              emit(attack ? 9999 : 80,
                   attack ? net::TrafficOrigin::kMiraiUdpFlood : net::TrafficOrigin::kHttp);
            });
      }
    }
    net.simulator().run_until(SimTime::millis(8500));
    ids.flush();
    out.reports = ids.reports();
    out.final_version = ids.model_version();
    out.stats = ids.lifecycle()->stats();
    return out;
  }
};

TEST(IdsLifecycleTest, HotSwapLandsAndVersionsAreMonotone) {
  const auto run = World{}.run_scenario();
  ASSERT_GE(run.reports.size(), 7u);
  EXPECT_GT(run.final_version, 1u) << "scenario never hot-swapped; coverage hole";
  EXPECT_GE(run.stats.swaps_applied, 1u);
  EXPECT_GE(run.stats.retrains_triggered, run.stats.swaps_applied);

  // Per-window versions start at 1 and never decrease; verdict events
  // carry the same sequence the reports do.
  std::uint64_t prev = 1;
  for (const auto& r : run.reports) {
    EXPECT_GE(r.model_version, prev);
    prev = r.model_version;
  }
  ASSERT_EQ(run.event_versions.size(), run.reports.size());
  for (std::size_t i = 0; i < run.reports.size(); ++i) {
    EXPECT_EQ(run.event_versions[i], run.reports[i].model_version);
  }
  EXPECT_EQ(run.reports.front().model_version, 1u);
  EXPECT_EQ(run.reports.back().model_version, run.final_version);
}

TEST(IdsLifecycleTest, PublishesVersionGaugeAndLifecycleCounters) {
  const auto run = World{}.run_scenario();
  ASSERT_GT(run.final_version, 1u);
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.gauge("ids.model_version").value(),
            static_cast<double>(run.final_version));
  EXPECT_GE(reg.counter("lifecycle.swaps").value(), run.stats.swaps_applied);
  EXPECT_GE(reg.counter("lifecycle.retrains_triggered").value(),
            run.stats.retrains_triggered);
  // Per-feature drift gauges exist for the whole schema width.
  reg.gauge("lifecycle.drift.f0");
  reg.gauge("lifecycle.drift.f" + std::to_string(features::kFeatureCount - 1));
}

TEST(IdsLifecycleTest, DisabledLifecycleServesVersionOne) {
  World world;
  IdsConfig config;  // lifecycle.enabled defaults to false
  RealTimeIds ids{*world.ids_box, Rng{1}, tiny_forest(), config};
  EXPECT_EQ(ids.lifecycle(), nullptr);
  EXPECT_EQ(ids.model_version(), 1u);
}

// --------------------------------------------------------------------------
// ResourceMeter getrusage fallback
// --------------------------------------------------------------------------

TEST(ResourceMeterFallbackTest, ReportsRssWithoutProcfs) {
  // use_procfs = false models a container where /proc/self/status is
  // masked or unreadable: the meter must degrade to getrusage peak RSS,
  // not to zero.
  ResourceMeterConfig cfg;
  cfg.use_procfs = false;
  ResourceMeter meter{"fallback", cfg};
  const std::uint64_t rss = meter.sample_rss_kb(0);
  EXPECT_GT(rss, 0u) << "getrusage fallback returned no RSS";
  // ru_maxrss is itself a peak: current and peak coincide on this path.
  EXPECT_EQ(meter.peak_rss_kb(), rss);

  // The per-window rate limit is independent of the probe backend.
  EXPECT_EQ(meter.sample_rss_kb(0), rss);
  EXPECT_EQ(meter.samples_taken(), 1u);
  meter.sample_rss_kb(1);
  EXPECT_EQ(meter.samples_taken(), 2u);
}

TEST(ResourceMeterFallbackTest, FallbackTracksProcfsWithinTolerance) {
  // Both backends measure the same process; peak figures agree to within
  // a loose factor (procfs VmHWM vs getrusage ru_maxrss bookkeeping).
  ResourceMeterConfig procfs_cfg;
  ResourceMeter procfs_meter{"procfs", procfs_cfg};
  ResourceMeterConfig fallback_cfg;
  fallback_cfg.use_procfs = false;
  ResourceMeter fallback_meter{"rusage", fallback_cfg};

  procfs_meter.sample_rss_kb(0);
  fallback_meter.sample_rss_kb(0);
  const double a = static_cast<double>(procfs_meter.peak_rss_kb());
  const double b = static_cast<double>(fallback_meter.peak_rss_kb());
  ASSERT_GT(a, 0.0);
  ASSERT_GT(b, 0.0);
  EXPECT_LT(a / b, 2.0);
  EXPECT_LT(b / a, 2.0);
}

}  // namespace
}  // namespace ddoshield::ids

// Live telemetry tests: TimeSeries ring mechanics, collector folding
// (counter deltas / gauge max / histogram quantiles across registries),
// the collector's periodic probes (cadence, clock, horizon, stop, trace
// counters, overruns), SLO watchdog episode semantics, and the headline
// contract — the sharded workload's "domain":"sim" ndjson lines are
// byte-identical across shard counts for a fixed seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard_workload.hpp"
#include "net/simulator.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "testkit/temp_path.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::obs {
namespace {

using util::SimTime;

// --------------------------------------------------------------------------
// TimeSeries ring
// --------------------------------------------------------------------------

TEST(TimeseriesTest, RingAppendsAndEvictsOldest) {
  TimeSeries s{SeriesKind::kGauge, SeriesDomain::kSim, 4};
  for (std::uint64_t t = 0; t < 6; ++t) s.append(t, static_cast<double>(t * 10));
  EXPECT_EQ(s.points(), 4u);
  EXPECT_EQ(s.first_tick(), 2u);
  EXPECT_EQ(s.last_tick(), 5u);
  EXPECT_DOUBLE_EQ(s.at(0), 20.0);
  EXPECT_DOUBLE_EQ(s.latest(), 50.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 50.0);
  // total survives eviction: 0+10+20+30+40+50.
  EXPECT_DOUBLE_EQ(s.total(), 150.0);
  std::vector<std::uint64_t> ticks;
  s.for_each([&ticks](std::uint64_t t, double) { ticks.push_back(t); });
  EXPECT_EQ(ticks, (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(TimeseriesTest, StoreRejectsConflictingKind) {
  TimeSeriesStore store;
  store.series("a", SeriesKind::kCounter, SeriesDomain::kSim);
  EXPECT_NO_THROW(store.series("a", SeriesKind::kCounter, SeriesDomain::kSim));
  EXPECT_THROW(store.series("a", SeriesKind::kGauge, SeriesDomain::kSim),
               std::logic_error);
  EXPECT_THROW(store.series("a", SeriesKind::kCounter, SeriesDomain::kWall),
               std::logic_error);
  EXPECT_EQ(store.find("missing"), nullptr);
}

// --------------------------------------------------------------------------
// Collector folding
// --------------------------------------------------------------------------

TEST(TelemetryCollectorTest, FoldsCounterDeltasGaugeMaxAndQuantiles) {
  MetricsRegistry a, b, probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(10);
  TelemetryCollector col{cfg, probes};
  col.add_source(&a);
  col.add_source(&b);
  col.add_counter("pkts", SeriesDomain::kSim);
  col.add_gauge("depth", SeriesDomain::kWall);
  col.add_quantile("lat", 0.99, SeriesDomain::kSim);

  a.counter("pkts").inc(10);
  b.counter("pkts").inc(5);
  a.gauge("depth").set(3.0);
  b.gauge("depth").set(7.0);
  for (std::uint64_t v = 1; v <= 100; ++v) a.histogram("lat").observe(v);
  col.tick(SimTime::millis(10));

  a.counter("pkts").inc(2);
  col.tick(SimTime::millis(20));

  const TimeSeries* pkts = col.store().find("pkts");
  ASSERT_NE(pkts, nullptr);
  EXPECT_EQ(pkts->points(), 2u);
  EXPECT_DOUBLE_EQ(pkts->at(0), 15.0);  // first tick: full total
  EXPECT_DOUBLE_EQ(pkts->at(1), 2.0);   // second: delta only
  EXPECT_DOUBLE_EQ(pkts->total(), 17.0);

  const TimeSeries* depth = col.store().find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->latest(), 7.0);  // max across sources

  const TimeSeries* lat = col.store().find("lat.p99");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->kind(), SeriesKind::kQuantile);
  EXPECT_GT(lat->latest(), 0.0);
  EXPECT_EQ(col.ticks(), 2u);
}

TEST(TelemetryCollectorTest, ProbesLandInSeriesAndProbeRegistry) {
  MetricsRegistry probes;
  TelemetryCollector col{TelemetryConfig{}, probes};
  double level = 1.5;
  col.add_probe("live.level", SeriesDomain::kWall, [&level] { return level; });
  col.tick(SimTime::millis(100));
  level = 4.5;
  col.tick(SimTime::millis(200));
  const TimeSeries* s = col.store().find("live.level");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->latest(), 4.5);
  EXPECT_DOUBLE_EQ(probes.gauge("live.level").value(), 4.5);
}

TEST(TelemetryCollectorTest, StartDrivesTicksFromSimulatorClock) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(10);
  TelemetryCollector col{cfg, probes};
  col.add_probe("t.now", SeriesDomain::kSim, [] { return 1.0; });
  net::Simulator sim;
  col.start(sim);
  sim.run_until(SimTime::millis(55));
  col.stop();
  EXPECT_EQ(col.ticks(), 5u);
}

TEST(TelemetryCollectorTest, SamplesOnCadenceAndWritesGauges) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(100);
  TelemetryCollector col{cfg, probes};
  int calls = 0;
  col.add_probe("probe.value", SeriesDomain::kSim,
                [&calls] { return static_cast<double>(++calls); });
  net::Simulator sim;
  col.start(sim);
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(col.ticks(), 10u);
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(col.tick_overruns(), 0u);
  EXPECT_DOUBLE_EQ(probes.gauge("probe.value").value(), 10.0);
  EXPECT_DOUBLE_EQ(probes.gauge("probe.value").high_water(), 10.0);
}

TEST(TelemetryCollectorTest, ObservesConsistentClockAtRunUntilBoundaries) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(250);
  TelemetryCollector col{cfg, probes};
  net::Simulator sim;
  std::vector<SimTime> seen;
  col.add_probe("probe.t", SeriesDomain::kSim, [&] {
    seen.push_back(sim.now());
    return 0.0;
  });
  col.start(sim);

  // run_until to a boundary that is NOT a multiple of the interval: ticks
  // at 250/500/750 ms fire, the 1000 ms tick stays pending, and the clock
  // still advances exactly to the boundary.
  sim.run_until(SimTime::millis(900));
  EXPECT_EQ(sim.now(), SimTime::millis(900));
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], cfg.interval * static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(col.last_tick_at(), SimTime::millis(750));
  EXPECT_LE(col.last_tick_at(), sim.now());

  // Resuming past the next boundary fires the pending tick exactly at it.
  sim.run_until(SimTime::millis(1100));
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.back(), SimTime::millis(1000));
  EXPECT_EQ(sim.now(), SimTime::millis(1100));
}

TEST(TelemetryCollectorTest, StopHaltsFutureTicks) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(100);
  cfg.until = SimTime::seconds(10);
  TelemetryCollector col{cfg, probes};
  col.add_probe("p", SeriesDomain::kSim, [] { return 1.0; });
  net::Simulator sim;
  col.start(sim);
  sim.run_until(SimTime::millis(250));
  col.stop();
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(col.ticks(), 2u);
}

TEST(TelemetryCollectorTest, StopsAtConfiguredHorizon) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(100);
  cfg.until = SimTime::millis(350);
  TelemetryCollector col{cfg, probes};
  col.add_probe("p", SeriesDomain::kSim, [] { return 1.0; });
  net::Simulator sim;
  col.start(sim);
  // Bounded horizon: the collector stops re-arming, so run_all terminates.
  sim.run_all();
  EXPECT_EQ(col.ticks(), 3u);  // 100, 200, 300 ms
  EXPECT_EQ(col.last_tick_at(), SimTime::millis(300));
}

TEST(TelemetryCollectorTest, RejectsNonPositiveInterval) {
  MetricsRegistry probes;
  for (const SimTime interval : {SimTime{}, SimTime::millis(-100)}) {
    TelemetryConfig cfg;
    cfg.interval = interval;
    EXPECT_THROW((TelemetryCollector{cfg, probes}), std::invalid_argument);
  }
}

TEST(TelemetryCollectorTest, EmitsTraceCountersWhenTracingEnabled) {
  MetricsRegistry probes;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(100);
  TelemetryCollector col{cfg, probes};
  col.add_probe("traced.gauge", SeriesDomain::kWall, [] { return 5.0; });
  net::Simulator sim;
  col.start(sim);

  auto& trace = TraceRecorder::global();
  trace.clear();
  trace.set_enabled(true);
  sim.run_until(SimTime::millis(200));
  trace.set_enabled(false);
  EXPECT_EQ(trace.size(), 2u);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  EXPECT_NE(os.str().find("traced.gauge"), std::string::npos);
  trace.clear();
}

TEST(TelemetryCollectorTest, HealthReportSummarises) {
  MetricsRegistry a, probes;
  TelemetryCollector col{TelemetryConfig{}, probes};
  col.add_source(&a);
  col.add_counter("pkts", SeriesDomain::kSim);
  a.counter("pkts").inc(3);
  col.tick(SimTime::millis(100));
  const std::string report = col.health_report();
  EXPECT_NE(report.find("1 tick"), std::string::npos);
  EXPECT_NE(report.find("pkts"), std::string::npos);
}

// --------------------------------------------------------------------------
// Tick overrun counter
// --------------------------------------------------------------------------

TEST(TimeseriesTest, SamplerCountsTickOverruns) {
  MetricsRegistry reg;
  TelemetryConfig cfg;
  cfg.interval = SimTime::millis(10);
  TelemetryCollector col{cfg, reg};
  col.add_probe("x", SeriesDomain::kSim, [] { return 1.0; });
  col.tick(SimTime::millis(10));
  col.tick(SimTime::millis(20));  // on cadence
  EXPECT_EQ(col.tick_overruns(), 0u);
  col.tick(SimTime::millis(45));  // skipped past 30 and 40
  EXPECT_EQ(col.tick_overruns(), 1u);
  EXPECT_EQ(reg.counter("obs.sampler.tick_overruns").value(), 1u);
}

// --------------------------------------------------------------------------
// SLO watchdog
// --------------------------------------------------------------------------

TEST(SloWatchdogTest, FiresOncePerEpisodeAndRearmsAfterRecovery) {
  MetricsRegistry reg, probes;
  TelemetryCollector col{TelemetryConfig{}, probes};
  SloWatchdog dog{reg};
  dog.add_rule({.name = "hot", .series = "temp", .op = SloOp::kAbove, .threshold = 10.0});
  col.set_watchdog(&dog);
  double temp = 5.0;
  col.add_probe("temp", SeriesDomain::kSim, [&temp] { return temp; });

  col.tick(SimTime::millis(100));  // 5: quiet
  temp = 20.0;
  col.tick(SimTime::millis(200));  // breach -> alert
  col.tick(SimTime::millis(300));  // still breaching -> no second alert
  temp = 5.0;
  col.tick(SimTime::millis(400));  // recovery re-arms
  temp = 20.0;
  col.tick(SimTime::millis(500));  // second episode -> second alert

  ASSERT_EQ(dog.alerts().size(), 2u);
  EXPECT_EQ(dog.alerts()[0].t_ns, SimTime::millis(200).ns());
  EXPECT_EQ(dog.alerts()[1].t_ns, SimTime::millis(500).ns());
  EXPECT_EQ(reg.counter("slo.alerts").value(), 2u);
  EXPECT_EQ(reg.counter("slo.breach.hot").value(), 3u);  // breaching ticks
  EXPECT_EQ(dog.fatal_alerts(), 0u);
  const std::string log = dog.joined_log();
  EXPECT_NE(log.find("rule=hot"), std::string::npos);
  EXPECT_NE(log.find("severity=warn"), std::string::npos);
}

TEST(SloWatchdogTest, ForTicksDebouncesTransients) {
  MetricsRegistry reg, probes;
  TelemetryCollector col{TelemetryConfig{}, probes};
  SloWatchdog dog{reg};
  dog.add_rule({.name = "slow",
                .series = "lag",
                .op = SloOp::kAbove,
                .threshold = 1.0,
                .for_ticks = 3});
  col.set_watchdog(&dog);
  double lag = 2.0;
  col.add_probe("lag", SeriesDomain::kSim, [&lag] { return lag; });

  col.tick(SimTime::millis(100));
  col.tick(SimTime::millis(200));
  EXPECT_TRUE(dog.alerts().empty());  // 2 breaching ticks < for_ticks
  lag = 0.0;
  col.tick(SimTime::millis(300));  // streak reset
  lag = 2.0;
  col.tick(SimTime::millis(400));
  col.tick(SimTime::millis(500));
  col.tick(SimTime::millis(600));  // third consecutive -> fires
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.alerts()[0].t_ns, SimTime::millis(600).ns());
}

TEST(SloWatchdogTest, BelowRuleWithIgnoreZeroSkipsIdleSamples) {
  MetricsRegistry reg, probes;
  TelemetryCollector col{TelemetryConfig{}, probes};
  SloWatchdog dog{reg};
  dog.add_rule({.name = "success",
                .series = "rate",
                .op = SloOp::kBelow,
                .threshold = 0.95,
                .ignore_zero = true});
  col.set_watchdog(&dog);
  double rate = 0.0;
  col.add_probe("rate", SeriesDomain::kSim, [&rate] { return rate; });
  col.tick(SimTime::millis(100));  // 0 ignored
  EXPECT_TRUE(dog.alerts().empty());
  rate = 0.5;
  col.tick(SimTime::millis(200));
  EXPECT_EQ(dog.alerts().size(), 1u);
}

TEST(SloWatchdogTest, FatalBreachTriggersArmedFlightDump) {
  testkit::ScopedTempFile dump{"slo_flight", ".json"};
  MetricsRegistry reg, probes;
  FlightRecorder flight{reg};
  flight.arm_dump(dump.path());
  TelemetryCollector col{TelemetryConfig{}, probes};
  SloWatchdog dog{reg};
  dog.set_flight_recorder(&flight);
  dog.add_rule({.name = "meltdown",
                .series = "temp",
                .op = SloOp::kAbove,
                .threshold = 100.0,
                .severity = SloSeverity::kFatal});
  col.set_watchdog(&dog);
  col.add_probe("temp", SeriesDomain::kSim, [] { return 1000.0; });
  col.tick(SimTime::millis(100));
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.fatal_alerts(), 1u);
  EXPECT_TRUE(flight.dumped());
  EXPECT_EQ(reg.counter("slo.alerts.fatal").value(), 1u);
  std::ifstream in{dump.path()};
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("slo breach: meltdown"), std::string::npos);
}

// --------------------------------------------------------------------------
// Sharded workload: ndjson determinism + live alerts
// --------------------------------------------------------------------------

core::ShardWorkloadConfig telemetry_workload(std::size_t shards,
                                             const std::string& ndjson_path) {
  core::ShardWorkloadConfig cfg;
  cfg.device_count = 32;
  cfg.cluster_count = 8;
  cfg.shard_count = shards;
  cfg.seed = 1234;
  cfg.duration = util::SimTime::millis(600);
  cfg.flood_device_count = 4;
  cfg.flood_pps = 600.0;
  cfg.flood_start = util::SimTime::millis(250);  // benign warmup first
  cfg.ids_enabled = true;
  cfg.ids.window = util::SimTime::millis(50);
  cfg.telemetry = true;
  cfg.telemetry_cfg.interval = util::SimTime::millis(50);
  cfg.timeseries_path = ndjson_path;
  cfg.slo = true;
  return cfg;
}

/// Header line plus every "domain":"sim" line — the cross-layout equality
/// surface; "wall" lines legitimately differ run to run. The header (the
/// series names, kinds and domains) must lead the stream, exactly once.
std::string sim_domain_lines(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.is_open()) << path;
  std::string out, line;
  std::size_t headers = 0;
  bool first = true;
  while (std::getline(in, line)) {
    const bool header = line.rfind("{\"schema\":", 0) == 0;
    if (header) {
      EXPECT_TRUE(first) << path << ": header after other lines";
      ++headers;
    }
    first = false;
    if (header || line.find("\"domain\":\"sim\"") != std::string::npos) out += line + "\n";
  }
  EXPECT_EQ(headers, 1u) << path;
  return out;
}

TEST(ShardTimeseriesTest, SimDomainNdjsonIsByteIdenticalAcrossShardCounts) {
  testkit::ScopedTempFile f1{"ts_s1", ".ndjson"};
  testkit::ScopedTempFile f2{"ts_s2", ".ndjson"};
  testkit::ScopedTempFile f8{"ts_s8", ".ndjson"};

  const auto r1 = core::run_shard_workload(telemetry_workload(1, f1.path()));
  const auto r2 = core::run_shard_workload(telemetry_workload(2, f2.path()));
  const auto r8 = core::run_shard_workload(telemetry_workload(8, f8.path()));

  ASSERT_TRUE(r1.conservation_ok) << r1.conservation_error;
  ASSERT_TRUE(r2.conservation_ok) << r2.conservation_error;
  ASSERT_TRUE(r8.conservation_ok) << r8.conservation_error;
  EXPECT_GT(r1.telemetry_ticks, 0u);
  EXPECT_EQ(r1.telemetry_ticks, r2.telemetry_ticks);
  EXPECT_EQ(r1.telemetry_ticks, r8.telemetry_ticks);

  const std::string s1 = sim_domain_lines(f1.path());
  const std::string s2 = sim_domain_lines(f2.path());
  const std::string s8 = sim_domain_lines(f8.path());
  ASSERT_FALSE(s1.empty());
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);

  // The detection surface itself stays byte-identical with telemetry on.
  EXPECT_EQ(r1.ids_row_digest, r2.ids_row_digest);
  EXPECT_EQ(r1.ids_verdict_digest, r8.ids_verdict_digest);
  EXPECT_EQ(r1.ids_action_log, r8.ids_action_log);
}

// Order matters to the process-global registry: a multi-shard run merges
// its domains (detection lags included) into it when it ends. A later
// single-shard run must still fold only its own instruments, so its
// sim-domain series equal a multi-shard run's.
TEST(ShardTimeseriesTest, SingleShardRunAfterAMultiShardRunFoldsOnlyItsOwnRun) {
  testkit::ScopedTempFile f2{"ts_order_s2", ".ndjson"};
  testkit::ScopedTempFile f1{"ts_order_s1", ".ndjson"};
  const auto r2 = core::run_shard_workload(telemetry_workload(2, f2.path()));
  const auto r1 = core::run_shard_workload(telemetry_workload(1, f1.path()));
  ASSERT_TRUE(r2.conservation_ok) << r2.conservation_error;
  ASSERT_TRUE(r1.conservation_ok) << r1.conservation_error;

  const std::string s2 = sim_domain_lines(f2.path());
  ASSERT_FALSE(s2.empty());
  EXPECT_EQ(sim_domain_lines(f1.path()), s2);
  EXPECT_EQ(r1.slo_alert_log, r2.slo_alert_log);
}

TEST(ShardTimeseriesTest, DetectLagAlertFiresDuringFloodNotWarmup) {
  testkit::ScopedTempFile f{"ts_alert", ".ndjson"};
  const auto cfg = telemetry_workload(2, f.path());
  const auto result = core::run_shard_workload(cfg);

  ASSERT_GE(result.slo_alerts, 1u);
  EXPECT_NE(result.slo_alert_log.find("rule=detect-lag-p99"), std::string::npos);
  // Every alert postdates the flood start: the benign warmup is quiet.
  std::istringstream log{result.slo_alert_log};
  std::string line;
  while (std::getline(log, line)) {
    long long t_ns = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "t=%lld", &t_ns), 1) << line;
    EXPECT_GT(t_ns, cfg.flood_start.ns()) << line;
  }
  // The alert also rode the ndjson stream.
  std::ifstream in{f.path()};
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"t\":\"alert\""), std::string::npos);
  EXPECT_NE(contents.find("detect-lag-p99"), std::string::npos);
}

TEST(ShardTimeseriesTest, AlertLogIsIdenticalAcrossShardCounts) {
  testkit::ScopedTempFile f2{"ts_al2", ".ndjson"};
  testkit::ScopedTempFile f4{"ts_al4", ".ndjson"};
  const auto r2 = core::run_shard_workload(telemetry_workload(2, f2.path()));
  const auto r4 = core::run_shard_workload(telemetry_workload(4, f4.path()));
  // Sim-domain rules only (the wall rules stayed quiet in this sizing), so
  // the whole alert log is part of the deterministic surface.
  EXPECT_EQ(r2.slo_alert_log, r4.slo_alert_log);
  EXPECT_EQ(r2.slo_alerts, r4.slo_alerts);
}

}  // namespace
}  // namespace ddoshield::obs

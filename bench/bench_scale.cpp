// bench_scale: macrobenchmark of the simulation hot path, sweeping device
// count through the real Testbed + RealTimeIds pipeline.
//
// Each testbed sweep point runs one deterministic scenario on the
// production event loop: calendar-queue scheduler and pre-sized packet
// pool. Total events and tapped packets are deterministic counters,
// stable across machines and gateable in CI, as is the pool's zero
// steady-state allocation count; wall-clock throughput (events/s,
// packets/s) is machine-dependent and reported but never gated. The
// numbers of the pre-overhaul configuration it replaced are kept in the
// committed BENCH_SCALE.json and EXPERIMENTS.md.
//
// A second sweep exercises the sharded simulator (core/shard_sim.hpp) on
// the clustered fleet workload at 10k-100k devices:
//   * "flat"      — one event loop, one edge, one /32 route per device:
//     the pre-sharding architecture, whose route tables (and 256-slot
//     route cache) degrade linearly with fleet size;
//   * "clustered" — the shard-aware topology (per-cluster /15 prefixes,
//     O(clusters) core table) at shard counts 1/2/4/8.
// Digests and packet counts are shard-count invariant (proven by the
// ShardFuzz A/B suite) and golden-pinned; the flat-vs-sharded throughput
// ratio is the architectural speedup reported in "shard_comparison".
//
// Outputs BENCH_SCALE.json. With --golden FILE the deterministic counters
// are checked against the committed golden and the process exits non-zero
// on any drift (the CI perf-smoke gate); --write-golden regenerates it.
// --shard-golden / --write-shard-golden do the same for the shard sweep.
//
// A third sweep (--ids) runs the sharded detection pipeline end to end —
// per-cluster egress taps, windowed scoring, verdict-driven mitigation —
// at shard counts 1/2/8, next to a "flat" one-cluster, one-shard run. The
// detection surface (rows, truth/predicted, row/verdict/action digests)
// is shard-count-invariant, gated in-process and pinned by --ids-golden;
// captured-packets/s and the window-close latency percentiles are the
// reported performance.
//
// Usage:
//   bench_scale [--small] [--no-testbed-sweep] [--out FILE]
//               [--golden FILE] [--write-golden FILE]
//               [--shard-golden FILE] [--write-shard-golden FILE]
//               [--no-shard-sweep] [--ids]
//               [--ids-golden FILE] [--write-ids-golden FILE]
// --no-testbed-sweep skips the testbed sweep (and the model training it
// needs), running only the shard sweeps.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "core/shard_workload.hpp"
#include "core/testbed.hpp"
#include "features/extractor.hpp"
#include "ml/kmeans.hpp"
#include "net/simulator.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

namespace {

struct SweepPoint {
  std::size_t devices = 0;
  std::int64_t sim_seconds = 0;
};

// Larger fleets run fewer simulated seconds so the full sweep stays in
// benchmark-friendly wall time; each point's config is recorded in the
// JSON and pinned by the golden.
const std::vector<SweepPoint> kFullSweep = {{10, 20}, {50, 12}, {200, 8}, {1000, 2}};
const std::vector<SweepPoint> kSmallSweep = {{10, 6}, {50, 4}};

constexpr std::uint64_t kScenarioSeed = 42;

struct RunResult {
  std::size_t devices = 0;
  std::int64_t sim_seconds = 0;
  double wall_seconds = 0.0;
  double measured_wall_seconds = 0.0;  // post-warmup phase only
  // Deterministic counters (identical across machines).
  std::uint64_t events_total = 0;
  std::uint64_t packets_total = 0;
  // Machine-dependent throughput over the measured phase.
  double events_per_sec = 0.0;
  double packets_per_sec = 0.0;
  // Pool behaviour.
  std::uint64_t pool_allocated_packets = 0;
  std::uint64_t pool_steady_state_allocs = 0;  // fresh slots after warmup
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_outstanding_high_water = 0;
  // Scheduler behaviour.
  std::uint64_t calendar_rollovers = 0;
  std::size_t calendar_bucket_high_water = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t ids_windows = 0;
  long peak_rss_kb = 0;  // process-wide high water at sample time
};

long peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// The scenario behind every sweep point: detection-style star topology,
// full benign mix, and a repeating SYN/UDP/ACK attack cycle that starts
// early so the warmup half of the run reaches steady-state attack load.
core::Scenario make_scale_scenario(const SweepPoint& point) {
  core::Scenario s = core::detection_scenario(kScenarioSeed);
  s.device_count = point.devices;
  s.duration = util::SimTime::seconds(point.sim_seconds);
  s.infection_start = util::SimTime::millis(200);
  // A denser benign mix than the canonical scenario so aggregate load
  // scales with the fleet, plus a hot spoofed flood cycle from early on —
  // the regime the scheduler/pool overhaul targets.
  s.benign.http_session_rate = 2.0;
  s.benign.video_session_rate = 0.3;
  s.benign.ftp_session_rate = 0.2;
  s.attacks.clear();
  core::schedule_attack_cycle(s, util::SimTime::millis(800), s.duration,
                              /*burst=*/util::SimTime::millis(900),
                              /*gap=*/util::SimTime::millis(300),
                              {botnet::AttackType::kSynFlood, botnet::AttackType::kUdpFlood,
                               botnet::AttackType::kAckFlood},
                              /*pps_per_bot=*/2500.0);
  for (core::AttackBurst& burst : s.attacks) burst.spoof_sources = true;
  // Long-delay links keep many packets in flight, so the pending-event
  // population grows with load instead of draining instantly.
  s.topology.access_link.delay = util::SimTime::millis(30);
  s.topology.access_link.queue_bytes = 512 * 1024;
  s.topology.uplink.rate_bps = 400e6;
  s.topology.uplink.delay = util::SimTime::millis(10);
  s.topology.uplink.queue_bytes = 4 * 1024 * 1024;
  s.churn.events_per_device_per_second = 0.0;  // churn off: pure load sweep
  return s;
}

// In-flight ceiling the pool is pre-sized to; runs report
// pool_outstanding_high_water so a sweep that outgrows it is visible.
constexpr std::size_t kPoolReservePackets = 32 * 1024;

RunResult run_point(const SweepPoint& point, const ml::Classifier& model) {
  core::Testbed tb{make_scale_scenario(point)};
  tb.deploy();
  net::Simulator& sim = tb.network().simulator();
  sim.packet_pool().reserve(kPoolReservePackets);
  ids::RealTimeIds& ids = tb.deploy_ids(model);

  const util::SimTime warmup = tb.scenario().duration / 2;

  const auto t0 = std::chrono::steady_clock::now();
  tb.run_until(warmup);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t warm_packets = tb.tap().packets_captured();
  const std::uint64_t warm_pool_allocs = sim.packet_pool().stats().allocated_packets;
  tb.run();
  const auto t2 = std::chrono::steady_clock::now();

  RunResult r;
  r.devices = point.devices;
  r.sim_seconds = point.sim_seconds;
  r.wall_seconds = std::chrono::duration<double>(t2 - t0).count();
  r.measured_wall_seconds = std::chrono::duration<double>(t2 - t1).count();
  r.events_total = sim.events_executed();
  r.packets_total = tb.tap().packets_captured();
  const double measured = r.measured_wall_seconds > 0 ? r.measured_wall_seconds : 1e-9;
  r.events_per_sec = static_cast<double>(r.events_total - warm_events) / measured;
  r.packets_per_sec = static_cast<double>(r.packets_total - warm_packets) / measured;
  const auto& pool = sim.packet_pool().stats();
  r.pool_allocated_packets = pool.allocated_packets;
  r.pool_steady_state_allocs = pool.allocated_packets - warm_pool_allocs;
  r.pool_reuses = pool.reuses;
  r.pool_outstanding_high_water = pool.outstanding_high_water;
  r.calendar_rollovers = sim.calendar_rollovers();
  r.calendar_bucket_high_water = sim.calendar_bucket_high_water();
  r.queue_high_water = sim.queue_high_water();
  r.ids_windows = ids.summarize().windows;
  r.peak_rss_kb = peak_rss_kb();
  return r;
}

// ---------------------------------------------------------------------------
// Sharded scale sweep: the clustered fleet workload from
// core/shard_workload.hpp, swept over fleet size and shard count, with a
// "flat" single-loop baseline (one edge, one /32 per device) at each fleet
// size for the architectural comparison.
// ---------------------------------------------------------------------------

struct ShardSweepPoint {
  const char* label = "";  // "flat" or "clustered"
  std::size_t devices = 0;
  std::size_t clusters = 0;  // 1 for the flat baseline
  std::size_t shards = 0;
  std::int64_t sim_millis = 0;
  std::int64_t drain_millis = 0;
  double upstream_pps = 0.0;
  double gossip_pps = 0.0;
};

// 10k points run the default open-loop rates; the 100k points trim rate and
// duration so the full sweep stays in benchmark-friendly wall time. The
// flat baseline is shard_count 1 by construction: one event loop is the
// point of comparison.
const std::vector<ShardSweepPoint> kFullShardSweep = {
    {"flat", 10000, 1, 1, 600, 150, 40.0, 25.0},
    {"clustered", 10000, 64, 1, 600, 150, 40.0, 25.0},
    {"clustered", 10000, 64, 2, 600, 150, 40.0, 25.0},
    {"clustered", 10000, 64, 4, 600, 150, 40.0, 25.0},
    {"clustered", 10000, 64, 8, 600, 150, 40.0, 25.0},
    {"clustered", 100000, 64, 1, 300, 120, 4.0, 2.0},
    {"clustered", 100000, 64, 8, 300, 120, 4.0, 2.0},
};
const std::vector<ShardSweepPoint> kSmallShardSweep = {
    {"flat", 512, 1, 1, 400, 150, 40.0, 25.0},
    {"clustered", 512, 16, 1, 400, 150, 40.0, 25.0},
    {"clustered", 512, 16, 2, 400, 150, 40.0, 25.0},
    {"clustered", 512, 16, 4, 400, 150, 40.0, 25.0},
};

struct ShardRunResult {
  std::string label;
  std::size_t devices = 0;
  std::size_t clusters = 0;
  std::size_t shards = 0;
  std::int64_t sim_millis = 0;
  double wall_seconds = 0.0;
  // Shard-count-invariant surface (golden-pinned).
  std::uint64_t digest_tserver = 0;
  std::uint64_t digest_devices = 0;
  std::uint64_t tserver_rx_packets = 0;
  std::uint64_t device_rx_packets = 0;
  std::uint64_t upstream_sent = 0;
  std::uint64_t gossip_sent = 0;
  // Run shape and machine-dependent throughput.
  std::uint64_t events_total = 0;
  std::uint64_t windows = 0;
  std::uint64_t channel_shipped = 0;
  std::uint64_t channel_drained = 0;
  std::uint64_t channel_overflowed = 0;
  std::size_t channels = 0;
  double events_per_sec = 0.0;
  double packets_per_sec = 0.0;
  long peak_rss_kb = 0;
  bool conservation_ok = false;
  std::string conservation_error;
};

ShardRunResult run_shard_point(const ShardSweepPoint& point) {
  core::ShardWorkloadConfig cfg;
  cfg.device_count = point.devices;
  cfg.cluster_count = point.clusters;
  cfg.shard_count = point.shards;
  cfg.seed = kScenarioSeed;
  cfg.duration = util::SimTime::millis(point.sim_millis);
  cfg.drain_margin = util::SimTime::millis(point.drain_millis);
  cfg.upstream_pps = point.upstream_pps;
  cfg.gossip_pps = point.gossip_pps;

  const auto t0 = std::chrono::steady_clock::now();
  const core::ShardWorkloadResult w = core::run_shard_workload(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  ShardRunResult r;
  r.label = point.label;
  r.devices = point.devices;
  r.clusters = point.clusters;
  r.shards = point.shards;
  r.sim_millis = point.sim_millis;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.digest_tserver = w.digest_tserver;
  r.digest_devices = w.digest_devices;
  r.tserver_rx_packets = w.tserver_rx_packets;
  r.device_rx_packets = w.device_rx_packets;
  r.upstream_sent = w.upstream_sent;
  r.gossip_sent = w.gossip_sent;
  r.events_total = w.events_total;
  r.windows = w.windows;
  r.channel_shipped = w.channel_stats.shipped;
  r.channel_drained = w.channel_stats.drained;
  r.channel_overflowed = w.channel_stats.overflowed;
  r.channels = w.channel_stats.channels;
  const double wall = r.wall_seconds > 0 ? r.wall_seconds : 1e-9;
  r.events_per_sec = static_cast<double>(r.events_total) / wall;
  r.packets_per_sec =
      static_cast<double>(r.tserver_rx_packets + r.device_rx_packets) / wall;
  r.peak_rss_kb = peak_rss_kb();
  r.conservation_ok = w.conservation_ok;
  r.conservation_error = w.conservation_error;
  return r;
}

// ---------------------------------------------------------------------------
// Sharded IDS sweep (--ids): the detection pipeline (per-cluster egress
// taps, columnar capture, windowed scoring, verdict-driven edge
// mitigation) on the clustered workload, sweeping the shard count. The
// detection surface (rows, truth/predicted counts, row/verdict digests,
// ActionLog) is shard-count-invariant — gated in-process and
// golden-pinned — while captured-packets/s and the window-close latency
// distribution are the measured performance.
// ---------------------------------------------------------------------------

struct IdsSweepPoint {
  const char* label = "";  // "flat" or "clustered"
  std::size_t devices = 0;
  std::size_t clusters = 0;
  std::size_t shards = 0;
  std::int64_t sim_millis = 0;
  std::int64_t drain_millis = 0;
  std::size_t flood_devices = 0;
  double flood_pps = 0.0;
};

// "flat" (clusters=1, shards=1) is the single-loop IDS baseline that the
// sharded runs in ids_comparison are measured against. Its detection
// surface differs from the clustered rows because the workload layout
// does, so it is pinned on its own golden line, never compared; clustered
// rows at a fleet size must match each other byte for byte (the
// equivalence gate).
const std::vector<IdsSweepPoint> kFullIdsSweep = {
    {"flat", 1000, 1, 1, 600, 150, 50, 400.0},
    {"clustered", 1000, 64, 1, 600, 150, 50, 400.0},
    {"clustered", 1000, 64, 2, 600, 150, 50, 400.0},
    {"clustered", 1000, 64, 8, 600, 150, 50, 400.0},
    {"flat", 10000, 1, 1, 600, 150, 500, 400.0},
    {"clustered", 10000, 64, 1, 600, 150, 500, 400.0},
    {"clustered", 10000, 64, 2, 600, 150, 500, 400.0},
    {"clustered", 10000, 64, 8, 600, 150, 500, 400.0},
};
const std::vector<IdsSweepPoint> kSmallIdsSweep = {
    {"flat", 256, 1, 1, 400, 150, 16, 400.0},
    {"clustered", 256, 16, 1, 400, 150, 16, 400.0},
    {"clustered", 256, 16, 2, 400, 150, 16, 400.0},
};

struct IdsRunResult {
  std::string label;
  std::size_t devices = 0;
  std::size_t clusters = 0;
  std::size_t shards = 0;
  std::int64_t sim_millis = 0;
  double wall_seconds = 0.0;
  // Shard-count-invariant detection surface (golden-pinned).
  std::uint64_t ids_rows = 0;
  std::uint64_t ids_truth = 0;
  std::uint64_t ids_predicted = 0;
  std::uint64_t ids_windows = 0;
  std::uint64_t row_digest = 0;
  std::uint64_t verdict_digest = 0;
  std::uint64_t action_digest = 0;  // FNV-1a over the joined ActionLog
  std::uint64_t action_lines = 0;
  // Machine-dependent performance surface.
  double captured_packets_per_sec = 0.0;  // ids_rows / wall
  std::int64_t close_p50_ns = 0;
  std::int64_t close_p99_ns = 0;
  std::int64_t close_max_ns = 0;
  // Enforcement effects (layout-dependent, reported not gated).
  std::uint64_t acl_dropped = 0;
  std::uint64_t ratelimit_dropped = 0;
  long peak_rss_kb = 0;
  bool conservation_ok = false;
  std::string conservation_error;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::int64_t percentile_ns(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

IdsRunResult run_ids_point(const IdsSweepPoint& point, const std::string& timeseries_base) {
  core::ShardWorkloadConfig cfg;
  cfg.device_count = point.devices;
  cfg.cluster_count = point.clusters;
  cfg.shard_count = point.shards;
  cfg.seed = kScenarioSeed;
  cfg.duration = util::SimTime::millis(point.sim_millis);
  cfg.drain_margin = util::SimTime::millis(point.drain_millis);
  cfg.flood_device_count = point.flood_devices;
  cfg.flood_pps = point.flood_pps;
  cfg.ids_enabled = true;
  if (!timeseries_base.empty()) {
    // One ndjson stream per sweep point, suffixed by its coordinates, so a
    // sweep leaves the whole grid's live series behind as artifacts.
    cfg.telemetry = true;
    cfg.slo = true;
    cfg.timeseries_path = timeseries_base + "." + point.label + "-" +
                          std::to_string(point.devices) + "d" + std::to_string(point.shards) +
                          "s.ndjson";
  }
  // Flood devices send ~40 rows per 100ms window at these rates; the
  // default min_packets (64) would sit above that and the mitigation
  // ladder would never engage.
  cfg.ids.mitigation_config.min_packets = 16;

  const auto t0 = std::chrono::steady_clock::now();
  const core::ShardWorkloadResult w = core::run_shard_workload(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  IdsRunResult r;
  r.label = point.label;
  r.devices = point.devices;
  r.clusters = point.clusters;
  r.shards = point.shards;
  r.sim_millis = point.sim_millis;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ids_rows = w.ids_rows;
  r.ids_truth = w.ids_truth;
  r.ids_predicted = w.ids_predicted;
  r.ids_windows = w.ids_windows;
  r.row_digest = w.ids_row_digest;
  r.verdict_digest = w.ids_verdict_digest;
  r.action_digest = fnv1a(w.ids_action_log);
  for (const char c : w.ids_action_log) r.action_lines += c == '\n';
  const double wall = r.wall_seconds > 0 ? r.wall_seconds : 1e-9;
  r.captured_packets_per_sec = static_cast<double>(r.ids_rows) / wall;
  r.close_p50_ns = percentile_ns(w.ids_close_wall_ns, 0.50);
  r.close_p99_ns = percentile_ns(w.ids_close_wall_ns, 0.99);
  r.close_max_ns = percentile_ns(w.ids_close_wall_ns, 1.0);
  r.acl_dropped = w.acl_dropped;
  r.ratelimit_dropped = w.ratelimit_dropped;
  r.peak_rss_kb = peak_rss_kb();
  r.conservation_ok = w.conservation_ok;
  r.conservation_error = w.conservation_error;
  return r;
}

// Trains the detector the IDS serves — one short generation run, shared by
// every sweep point. K-Means is the paper's lightweight detector; its
// per-packet inference is a handful of distance computations, so the sweep
// measures the event/packet pipeline rather than model arithmetic.
std::unique_ptr<ml::Classifier> train_model() {
  core::Scenario train = core::training_scenario(/*seed=*/1);
  train.device_count = 8;
  train.duration = util::SimTime::seconds(20);
  std::fprintf(stderr, "[setup] training kmeans on a %zu-device %.0f s capture...\n",
               train.device_count, train.duration.to_seconds());
  const core::GenerationResult gen = core::run_generation(train);
  const features::FeatureMatrix fm = features::extract_features(gen.dataset);
  ml::DesignMatrix x;
  std::vector<int> y;
  core::to_design_matrix(fm, x, y);
  auto model = std::make_unique<ml::KMeansDetector>();
  model->fit(x, y);
  return model;
}

void write_json(const std::string& path, const std::vector<SweepPoint>& sweep,
                const std::vector<RunResult>& runs,
                const std::vector<ShardRunResult>& shard_runs,
                const std::vector<IdsRunResult>& ids_runs, bool small) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"bench_scale\",\n";
  out << "  \"config\": {\n";
  out << "    \"sweep\": \"" << (small ? "small" : "full") << "\",\n";
  out << "    \"scenario_seed\": " << kScenarioSeed << ",\n";
  out << "    \"warmup_fraction\": 0.5,\n";
  out << "    \"points\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << (i ? ", " : "") << "{\"devices\": " << sweep[i].devices
        << ", \"sim_seconds\": " << sweep[i].sim_seconds << "}";
  }
  out << "],\n";
  out << "    \"notes\": \"deterministic counters (events_total, packets_total) are "
         "identical across machines; *_per_sec and peak_rss_kb are "
         "machine-dependent and not gated; peak_rss_kb is the process high water "
         "at sample time\"\n";
  out << "  },\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << "    {\"devices\": " << r.devices << ", \"sim_seconds\": " << r.sim_seconds << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "     \"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "
                  "\"packets_per_sec\": %.0f,\n",
                  r.wall_seconds, r.events_per_sec, r.packets_per_sec);
    out << buf;
    out << "     \"events_total\": " << r.events_total
        << ", \"packets_total\": " << r.packets_total << ",\n";
    out << "     \"pool_allocated_packets\": " << r.pool_allocated_packets
        << ", \"pool_steady_state_allocs\": " << r.pool_steady_state_allocs
        << ", \"pool_reuses\": " << r.pool_reuses
        << ", \"pool_outstanding_high_water\": " << r.pool_outstanding_high_water << ",\n";
    out << "     \"calendar_rollovers\": " << r.calendar_rollovers
        << ", \"calendar_bucket_high_water\": " << r.calendar_bucket_high_water
        << ", \"queue_high_water\": " << r.queue_high_water << ",\n";
    out << "     \"ids_windows\": " << r.ids_windows << ", \"peak_rss_kb\": " << r.peak_rss_kb
        << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Sharded scale sweep (empty when --no-shard-sweep).
  out << "  \"shard_config\": {\n";
  out << "    \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "    \"notes\": \"digests and packet counts are shard-count invariant "
         "and golden-pinned; wall-clock throughput is machine-dependent. "
         "'flat' is the single-loop baseline (one edge, one /32 route per "
         "device, thrashed route cache); 'clustered' is the shard-aware "
         "topology (per-cluster /15 prefixes). shard_comparison reports "
         "each sharded run against the flat baseline at the same fleet "
         "size.\"\n";
  out << "  },\n";
  out << "  \"shard_runs\": [\n";
  for (std::size_t i = 0; i < shard_runs.size(); ++i) {
    const ShardRunResult& r = shard_runs[i];
    out << "    {\"label\": \"" << r.label << "\", \"devices\": " << r.devices
        << ", \"clusters\": " << r.clusters << ", \"shards\": " << r.shards
        << ", \"sim_millis\": " << r.sim_millis << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "     \"wall_seconds\": %.3f, \"events_per_sec\": %.0f, "
                  "\"packets_per_sec\": %.0f,\n",
                  r.wall_seconds, r.events_per_sec, r.packets_per_sec);
    out << buf;
    out << "     \"events_total\": " << r.events_total
        << ", \"windows\": " << r.windows << ",\n";
    out << "     \"digest_tserver\": " << r.digest_tserver
        << ", \"digest_devices\": " << r.digest_devices << ",\n";
    out << "     \"tserver_rx_packets\": " << r.tserver_rx_packets
        << ", \"device_rx_packets\": " << r.device_rx_packets
        << ", \"upstream_sent\": " << r.upstream_sent
        << ", \"gossip_sent\": " << r.gossip_sent << ",\n";
    out << "     \"channel_shipped\": " << r.channel_shipped
        << ", \"channel_drained\": " << r.channel_drained
        << ", \"channel_overflowed\": " << r.channel_overflowed
        << ", \"channels\": " << r.channels << ",\n";
    out << "     \"conservation_ok\": " << (r.conservation_ok ? "true" : "false")
        << ", \"peak_rss_kb\": " << r.peak_rss_kb << "}"
        << (i + 1 < shard_runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"shard_comparison\": [";
  bool shard_first = true;
  for (const ShardRunResult& sharded : shard_runs) {
    if (sharded.label != "clustered") continue;
    for (const ShardRunResult& flat : shard_runs) {
      if (flat.label != "flat" || flat.devices != sharded.devices) continue;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"devices\": %zu, \"shards\": %zu, "
                    "\"flat_packets_per_sec\": %.0f, "
                    "\"sharded_packets_per_sec\": %.0f, \"speedup\": %.2f}",
                    shard_first ? "" : ",", sharded.devices, sharded.shards,
                    flat.packets_per_sec, sharded.packets_per_sec,
                    flat.packets_per_sec > 0
                        ? sharded.packets_per_sec / flat.packets_per_sec
                        : 0.0);
      out << buf;
      shard_first = false;
    }
  }
  out << (shard_first ? "" : "\n  ") << "],\n";
  // Sharded IDS sweep (empty unless --ids).
  out << "  \"ids_config\": {\n";
  out << "    \"notes\": \"full detection pipeline on the clustered workload: "
         "per-cluster egress taps, 100ms windows, verdict-driven edge "
         "mitigation (min_packets=16), columnar capture folded into streaming "
         "window accumulators. rows/truth/predicted/windows and the "
         "row/verdict/action digests are shard-count-invariant and "
         "golden-pinned; captured_packets_per_sec and the window-close "
         "latency percentiles are machine-dependent. 'flat' (clusters=1) is "
         "the single-loop IDS baseline; its workload layout differs, so only "
         "runs sharing a cluster count are equivalence-gated. ids_comparison "
         "reports every clustered run against the flat baseline at the same "
         "fleet size.\"\n";
  out << "  },\n";
  out << "  \"ids_runs\": [\n";
  for (std::size_t i = 0; i < ids_runs.size(); ++i) {
    const IdsRunResult& r = ids_runs[i];
    out << "    {\"label\": \"" << r.label << "\", \"devices\": " << r.devices
        << ", \"clusters\": " << r.clusters << ", \"shards\": " << r.shards
        << ", \"sim_millis\": " << r.sim_millis << ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "     \"wall_seconds\": %.3f, \"captured_packets_per_sec\": %.0f,\n",
                  r.wall_seconds, r.captured_packets_per_sec);
    out << buf;
    out << "     \"ids_rows\": " << r.ids_rows << ", \"ids_truth\": " << r.ids_truth
        << ", \"ids_predicted\": " << r.ids_predicted
        << ", \"ids_windows\": " << r.ids_windows << ",\n";
    out << "     \"row_digest\": " << r.row_digest
        << ", \"verdict_digest\": " << r.verdict_digest
        << ", \"action_digest\": " << r.action_digest
        << ", \"action_lines\": " << r.action_lines << ",\n";
    out << "     \"close_p50_ns\": " << r.close_p50_ns
        << ", \"close_p99_ns\": " << r.close_p99_ns
        << ", \"close_max_ns\": " << r.close_max_ns << ",\n";
    out << "     \"acl_dropped\": " << r.acl_dropped
        << ", \"ratelimit_dropped\": " << r.ratelimit_dropped
        << ", \"conservation_ok\": " << (r.conservation_ok ? "true" : "false")
        << ", \"peak_rss_kb\": " << r.peak_rss_kb << "}"
        << (i + 1 < ids_runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"ids_comparison\": [";
  bool ids_first = true;
  for (const IdsRunResult& run : ids_runs) {
    if (run.label != "clustered") continue;
    for (const IdsRunResult& base : ids_runs) {
      if (base.label != "flat" || base.devices != run.devices) continue;
      char buf[384];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"devices\": %zu, \"shards\": %zu, "
                    "\"baseline_packets_per_sec\": %.0f, \"packets_per_sec\": %.0f, "
                    "\"speedup\": %.2f, \"baseline_close_p99_ns\": %lld, "
                    "\"close_p99_ns\": %lld}",
                    ids_first ? "" : ",", run.devices, run.shards, base.captured_packets_per_sec,
                    run.captured_packets_per_sec,
                    base.captured_packets_per_sec > 0
                        ? run.captured_packets_per_sec / base.captured_packets_per_sec
                        : 0.0,
                    static_cast<long long>(base.close_p99_ns),
                    static_cast<long long>(run.close_p99_ns));
      out << buf;
      ids_first = false;
    }
  }
  out << (ids_first ? "" : "\n  ") << "]\n";
  out << "}\n";

  std::ofstream file{path};
  file << out.str();
  std::printf("wrote %s\n", path.c_str());
}

// Golden format: one "devices events_total packets_total" line per sweep
// point ('#' lines are comments).
int check_golden(const std::string& path, const std::vector<RunResult>& runs) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t checked = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::size_t devices = 0;
    std::uint64_t events = 0, packets = 0;
    if (!(in >> devices >> events >> packets)) {
      std::fprintf(stderr, "GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    bool found = false;
    for (const RunResult& r : runs) {
      if (r.devices != devices) continue;
      found = true;
      ++checked;
      if (r.events_total != events || r.packets_total != packets) {
        std::fprintf(stderr,
                     "GOLDEN FAIL: devices=%zu expected events=%llu packets=%llu, "
                     "got events=%llu packets=%llu\n",
                     devices, static_cast<unsigned long long>(events),
                     static_cast<unsigned long long>(packets),
                     static_cast<unsigned long long>(r.events_total),
                     static_cast<unsigned long long>(r.packets_total));
        ++failures;
      }
    }
    if (!found) {
      std::fprintf(stderr, "GOLDEN FAIL: no testbed run for devices=%zu\n", devices);
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "GOLDEN FAIL: %s contains no sweep points\n", path.c_str());
    return 1;
  }
  if (failures == 0) {
    std::printf("golden OK: %zu sweep point(s) match %s\n", checked, path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void write_golden(const std::string& path, const std::vector<RunResult>& runs) {
  std::ofstream file{path};
  file << "# bench_scale deterministic counters: devices events_total packets_total\n";
  file << "# Regenerate with: bench_scale --small --no-shard-sweep --write-golden <this file>\n";
  for (const RunResult& r : runs) {
    file << r.devices << " " << r.events_total << " " << r.packets_total << "\n";
  }
  std::printf("wrote golden %s\n", path.c_str());
}

// Shard golden format: one line per sweep point,
//   devices clusters shards digest_tserver digest_devices
//   tserver_rx device_rx upstream_sent gossip_sent
// Every field is deterministic and shard-count invariant, so rows that
// differ only in the shard count carry identical digests/counts — the
// committed file itself documents the equivalence.
int check_shard_golden(const std::string& path,
                       const std::vector<ShardRunResult>& runs) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "SHARD GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t checked = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::size_t devices = 0, clusters = 0, shards = 0;
    std::uint64_t dig_ts = 0, dig_dev = 0, ts_rx = 0, dev_rx = 0, up = 0, go = 0;
    if (!(in >> devices >> clusters >> shards >> dig_ts >> dig_dev >> ts_rx >>
          dev_rx >> up >> go)) {
      std::fprintf(stderr, "SHARD GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    bool found = false;
    for (const ShardRunResult& r : runs) {
      if (r.devices != devices || r.clusters != clusters || r.shards != shards)
        continue;
      found = true;
      ++checked;
      if (r.digest_tserver != dig_ts || r.digest_devices != dig_dev ||
          r.tserver_rx_packets != ts_rx || r.device_rx_packets != dev_rx ||
          r.upstream_sent != up || r.gossip_sent != go) {
        std::fprintf(stderr,
                     "SHARD GOLDEN FAIL: devices=%zu clusters=%zu shards=%zu "
                     "expected %llu %llu %llu %llu %llu %llu, got %llu %llu "
                     "%llu %llu %llu %llu\n",
                     devices, clusters, shards,
                     static_cast<unsigned long long>(dig_ts),
                     static_cast<unsigned long long>(dig_dev),
                     static_cast<unsigned long long>(ts_rx),
                     static_cast<unsigned long long>(dev_rx),
                     static_cast<unsigned long long>(up),
                     static_cast<unsigned long long>(go),
                     static_cast<unsigned long long>(r.digest_tserver),
                     static_cast<unsigned long long>(r.digest_devices),
                     static_cast<unsigned long long>(r.tserver_rx_packets),
                     static_cast<unsigned long long>(r.device_rx_packets),
                     static_cast<unsigned long long>(r.upstream_sent),
                     static_cast<unsigned long long>(r.gossip_sent));
        ++failures;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "SHARD GOLDEN FAIL: no run for devices=%zu clusters=%zu "
                   "shards=%zu\n",
                   devices, clusters, shards);
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "SHARD GOLDEN FAIL: %s contains no sweep points\n",
                 path.c_str());
    return 1;
  }
  if (failures == 0) {
    std::printf("shard golden OK: %zu sweep point(s) match %s\n", checked,
                path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void write_shard_golden(const std::string& path,
                        const std::vector<ShardRunResult>& runs) {
  std::ofstream file{path};
  file << "# bench_scale shard sweep: devices clusters shards digest_tserver "
          "digest_devices tserver_rx device_rx upstream_sent gossip_sent\n";
  file << "# Rows differing only in 'shards' must carry identical "
          "digests/counts (shard-count invariance).\n";
  file << "# Regenerate with: bench_scale [--small] --no-testbed-sweep --write-shard-golden "
          "<this file>\n";
  for (const ShardRunResult& r : runs) {
    file << r.devices << " " << r.clusters << " " << r.shards << " "
         << r.digest_tserver << " " << r.digest_devices << " "
         << r.tserver_rx_packets << " " << r.device_rx_packets << " "
         << r.upstream_sent << " " << r.gossip_sent << "\n";
  }
  std::printf("wrote shard golden %s\n", path.c_str());
}

// IDS golden format: one line per sweep point,
//   devices clusters shards rows truth predicted windows
//   row_digest verdict_digest action_digest
// Every field is deterministic and shard-count-invariant: rows differing
// only in 'shards' carry identical values — the committed file documents
// the detection-surface equivalence the tests prove.
int check_ids_golden(const std::string& path, const std::vector<IdsRunResult>& runs) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "IDS GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  std::size_t checked = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::size_t devices = 0, clusters = 0, shards = 0;
    std::uint64_t rows = 0, truth = 0, predicted = 0, windows = 0;
    std::uint64_t row_dig = 0, verdict_dig = 0, action_dig = 0;
    if (!(in >> devices >> clusters >> shards >> rows >> truth >> predicted >>
          windows >> row_dig >> verdict_dig >> action_dig)) {
      std::fprintf(stderr, "IDS GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    bool found = false;
    for (const IdsRunResult& r : runs) {
      if (r.devices != devices || r.clusters != clusters || r.shards != shards)
        continue;
      found = true;
      ++checked;
      if (r.ids_rows != rows || r.ids_truth != truth ||
          r.ids_predicted != predicted || r.ids_windows != windows ||
          r.row_digest != row_dig || r.verdict_digest != verdict_dig ||
          r.action_digest != action_dig) {
        std::fprintf(
            stderr,
            "IDS GOLDEN FAIL: devices=%zu clusters=%zu shards=%zu "
            "label=%s expected %llu %llu %llu %llu %llu %llu %llu, "
            "got %llu %llu %llu %llu %llu %llu %llu\n",
            devices, clusters, shards, r.label.c_str(), static_cast<unsigned long long>(rows),
            static_cast<unsigned long long>(truth), static_cast<unsigned long long>(predicted),
            static_cast<unsigned long long>(windows), static_cast<unsigned long long>(row_dig),
            static_cast<unsigned long long>(verdict_dig),
            static_cast<unsigned long long>(action_dig),
            static_cast<unsigned long long>(r.ids_rows),
            static_cast<unsigned long long>(r.ids_truth),
            static_cast<unsigned long long>(r.ids_predicted),
            static_cast<unsigned long long>(r.ids_windows),
            static_cast<unsigned long long>(r.row_digest),
            static_cast<unsigned long long>(r.verdict_digest),
            static_cast<unsigned long long>(r.action_digest));
        ++failures;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "IDS GOLDEN FAIL: no run for devices=%zu clusters=%zu "
                   "shards=%zu\n",
                   devices, clusters, shards);
      ++failures;
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "IDS GOLDEN FAIL: %s contains no sweep points\n",
                 path.c_str());
    return 1;
  }
  if (failures == 0) {
    std::printf("ids golden OK: %zu run(s) match %s\n", checked, path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

void write_ids_golden(const std::string& path, const std::vector<IdsRunResult>& runs) {
  std::ofstream file{path};
  file << "# bench_scale IDS sweep: devices clusters shards rows truth predicted "
          "windows row_digest verdict_digest action_digest\n";
  file << "# Values are shard-count-invariant: rows differing only in 'shards' must "
          "match.\n";
  file << "# Regenerate with: bench_scale [--small] --no-testbed-sweep --no-shard-sweep "
          "--ids --write-ids-golden <this file>\n";
  for (const IdsRunResult& r : runs) {
    file << r.devices << " " << r.clusters << " " << r.shards << " " << r.ids_rows << " "
         << r.ids_truth << " " << r.ids_predicted << " " << r.ids_windows << " " << r.row_digest
         << " " << r.verdict_digest << " " << r.action_digest << "\n";
  }
  std::printf("wrote ids golden %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  bool small = false;
  bool testbed_sweep_enabled = true;
  bool shard_sweep_enabled = true;
  bool ids_sweep_enabled = false;
  std::string out_path = "BENCH_SCALE.json";
  std::string golden_path;
  std::string write_golden_path;
  std::string shard_golden_path;
  std::string write_shard_golden_path;
  std::string ids_golden_path;
  std::string write_ids_golden_path;
  std::string ids_timeseries_base;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--small") {
      small = true;
    } else if (arg == "--no-testbed-sweep") {
      testbed_sweep_enabled = false;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--golden") {
      golden_path = next();
    } else if (arg == "--write-golden") {
      write_golden_path = next();
    } else if (arg == "--shard-golden") {
      shard_golden_path = next();
    } else if (arg == "--write-shard-golden") {
      write_shard_golden_path = next();
    } else if (arg == "--no-shard-sweep") {
      shard_sweep_enabled = false;
    } else if (arg == "--ids") {
      ids_sweep_enabled = true;
    } else if (arg == "--ids-golden") {
      ids_golden_path = next();
      ids_sweep_enabled = true;
    } else if (arg == "--write-ids-golden") {
      write_ids_golden_path = next();
      ids_sweep_enabled = true;
    } else if (arg == "--timeseries") {
      ids_timeseries_base = next();  // per-point ndjson: <base>.<label>-<N>d<S>s.ndjson
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--small] [--no-testbed-sweep] [--out FILE] "
                   "[--golden FILE] [--write-golden FILE] "
                   "[--shard-golden FILE] [--write-shard-golden FILE] "
                   "[--no-shard-sweep] [--ids] "
                   "[--ids-golden FILE] [--write-ids-golden FILE] "
                   "[--timeseries FILE]\n");
      return 2;
    }
  }

  // --- testbed sweep --------------------------------------------------------
  // The served model is trained only when the testbed sweep runs, so CI
  // can gate the shard sweeps alone in benchmark wall time.
  const std::vector<SweepPoint>& sweep = small ? kSmallSweep : kFullSweep;
  std::vector<RunResult> runs;
  int exit_code = 0;
  if (testbed_sweep_enabled) {
    const std::unique_ptr<ml::Classifier> model = train_model();
    for (const SweepPoint& point : sweep) {
      std::printf("[run] devices=%zu sim_seconds=%lld...\n", point.devices,
                  static_cast<long long>(point.sim_seconds));
      runs.push_back(run_point(point, *model));
      const RunResult& r = runs.back();
      std::printf(
          "      events=%llu packets=%llu wall=%.2fs events/s=%.0f packets/s=%.0f "
          "steady_allocs=%llu\n",
          static_cast<unsigned long long>(r.events_total),
          static_cast<unsigned long long>(r.packets_total), r.wall_seconds, r.events_per_sec,
          r.packets_per_sec, static_cast<unsigned long long>(r.pool_steady_state_allocs));
      if (r.pool_steady_state_allocs != 0) {
        std::fprintf(stderr,
                     "POOL FAIL: devices=%zu allocated %llu packet slots after warmup "
                     "(expected 0)\n",
                     r.devices, static_cast<unsigned long long>(r.pool_steady_state_allocs));
        exit_code = 1;
      }
    }
  }

  // --- sharded scale sweep ---------------------------------------------------
  std::vector<ShardRunResult> shard_runs;
  if (shard_sweep_enabled) {
    const std::vector<ShardSweepPoint>& shard_sweep =
        small ? kSmallShardSweep : kFullShardSweep;
    for (const ShardSweepPoint& point : shard_sweep) {
      std::printf("[shard] devices=%zu clusters=%zu shards=%zu label=%s...\n",
                  point.devices, point.clusters, point.shards, point.label);
      shard_runs.push_back(run_shard_point(point));
      const ShardRunResult& r = shard_runs.back();
      std::printf(
          "      events=%llu delivered=%llu wall=%.2fs packets/s=%.0f "
          "windows=%llu shipped=%llu\n",
          static_cast<unsigned long long>(r.events_total),
          static_cast<unsigned long long>(r.tserver_rx_packets + r.device_rx_packets),
          r.wall_seconds, r.packets_per_sec,
          static_cast<unsigned long long>(r.windows),
          static_cast<unsigned long long>(r.channel_shipped));
      if (!r.conservation_ok) {
        std::fprintf(stderr, "CONSERVATION FAIL: devices=%zu shards=%zu: %s\n",
                     r.devices, r.shards, r.conservation_error.c_str());
        exit_code = 1;
      }
    }
    // In-process shard-count invariance gate: runs that differ only in the
    // shard count must agree on every digest and counter.
    for (const ShardRunResult& a : shard_runs) {
      for (const ShardRunResult& b : shard_runs) {
        if (&a >= &b || a.devices != b.devices || a.clusters != b.clusters)
          continue;
        if (a.digest_tserver != b.digest_tserver ||
            a.digest_devices != b.digest_devices ||
            a.tserver_rx_packets != b.tserver_rx_packets ||
            a.device_rx_packets != b.device_rx_packets ||
            a.upstream_sent != b.upstream_sent || a.gossip_sent != b.gossip_sent) {
          std::fprintf(stderr,
                       "SHARD INVARIANCE FAIL: devices=%zu clusters=%zu: "
                       "shards=%zu and shards=%zu disagree\n",
                       a.devices, a.clusters, a.shards, b.shards);
          exit_code = 1;
        }
      }
    }
  }

  // --- sharded IDS sweep -----------------------------------------------------
  std::vector<IdsRunResult> ids_runs;
  if (ids_sweep_enabled) {
    const std::vector<IdsSweepPoint>& ids_sweep =
        small ? kSmallIdsSweep : kFullIdsSweep;
    for (const IdsSweepPoint& point : ids_sweep) {
      std::printf("[ids] devices=%zu clusters=%zu shards=%zu label=%s...\n", point.devices,
                  point.clusters, point.shards, point.label);
      ids_runs.push_back(run_ids_point(point, ids_timeseries_base));
      const IdsRunResult& r = ids_runs.back();
      std::printf(
          "      rows=%llu truth=%llu predicted=%llu windows=%llu wall=%.2fs "
          "captured/s=%.0f close_p99=%.2fms\n",
          static_cast<unsigned long long>(r.ids_rows),
          static_cast<unsigned long long>(r.ids_truth),
          static_cast<unsigned long long>(r.ids_predicted),
          static_cast<unsigned long long>(r.ids_windows), r.wall_seconds,
          r.captured_packets_per_sec,
          static_cast<double>(r.close_p99_ns) / 1e6);
      if (!r.conservation_ok) {
        std::fprintf(stderr, "CONSERVATION FAIL: ids devices=%zu shards=%zu: %s\n",
                     r.devices, r.shards, r.conservation_error.c_str());
        exit_code = 1;
      }
    }
    // In-process detection-equivalence gate: every run at a fleet size and
    // cluster count, any shard count, must produce the identical detection
    // surface.
    for (const IdsRunResult& a : ids_runs) {
      for (const IdsRunResult& b : ids_runs) {
        if (&a >= &b || a.devices != b.devices || a.clusters != b.clusters)
          continue;
        if (a.ids_rows != b.ids_rows || a.ids_truth != b.ids_truth ||
            a.ids_predicted != b.ids_predicted || a.ids_windows != b.ids_windows ||
            a.row_digest != b.row_digest || a.verdict_digest != b.verdict_digest ||
            a.action_digest != b.action_digest) {
          std::fprintf(stderr,
                       "IDS EQUIVALENCE FAIL: devices=%zu: %s/shards=%zu and "
                       "%s/shards=%zu disagree on the detection surface\n",
                       a.devices, a.label.c_str(), a.shards, b.label.c_str(), b.shards);
          exit_code = 1;
        }
      }
    }
    // The headline speedup: each clustered/sharded run vs the flat
    // single-loop baseline at its fleet size (reported, never gated —
    // wall clock is machine-dependent).
    for (const IdsRunResult& run : ids_runs) {
      if (run.label != "clustered") continue;
      for (const IdsRunResult& base : ids_runs) {
        if (base.label != "flat" || base.devices != run.devices ||
            base.captured_packets_per_sec <= 0)
          continue;
        std::printf("[ids] devices=%zu clustered shards=%zu speedup vs flat: %.2fx\n", run.devices,
                    run.shards, run.captured_packets_per_sec / base.captured_packets_per_sec);
      }
    }
  }

  write_json(out_path, sweep, runs, shard_runs, ids_runs, small);
  if (!write_golden_path.empty()) write_golden(write_golden_path, runs);
  if (!golden_path.empty() && exit_code == 0) exit_code = check_golden(golden_path, runs);
  if (!write_shard_golden_path.empty())
    write_shard_golden(write_shard_golden_path, shard_runs);
  if (!shard_golden_path.empty() && exit_code == 0)
    exit_code = check_shard_golden(shard_golden_path, shard_runs);
  if (!write_ids_golden_path.empty()) write_ids_golden(write_ids_golden_path, ids_runs);
  if (!ids_golden_path.empty() && exit_code == 0)
    exit_code = check_ids_golden(ids_golden_path, ids_runs);
  return exit_code;
}

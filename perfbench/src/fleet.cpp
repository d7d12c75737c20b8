// Workload "fleet-100k": core::run_shard_workload with 100k devices in 64
// clusters on S = min(4, nproc) shards, open-loop traffic (4 pps upstream,
// 2 pps gossip per device, 2000 flood devices at 400 pps), the sharded IDS
// on 100 ms windows scoring with K-Means, and edge mitigation with a
// 16-packet floor. The sharded path (PDES barriers and channels, columnar
// capture, accumulator merge, the serial close on shard 0, the per-source
// group-by over ~100k sources) does all of the work, over a working set far
// larger than the caches.
//
// K-Means, not RF: an RF trained on the star-topology capture flags none of
// the fleet's flood rows (addresses and timestamps are features), so
// enforcement would never run. K-Means flags every row and the min_packets
// floor then blocks exactly the flood sources, while scoring costs what a
// real model costs.
//
// Set-up: train the served K-Means. The measured phase is the whole
// run_shard_workload call, build and teardown included.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/shard_workload.hpp"
#include "ml/kmeans.hpp"

namespace perfbench {
namespace {


struct FleetScale {
  std::size_t devices = 100000;
  std::size_t clusters = 64;
  std::size_t flood_devices = 2000;
  util::SimTime duration = util::SimTime::millis(2150);
};

core::ShardWorkloadConfig fleet_config(const FleetScale& scale, std::uint64_t seed,
                                       std::size_t shards, const ml::Classifier& model) {
  core::ShardWorkloadConfig cfg;
  cfg.device_count = scale.devices;
  cfg.cluster_count = scale.clusters;
  cfg.shard_count = shards;
  cfg.seed = seed;
  cfg.duration = scale.duration;
  cfg.upstream_pps = 4.0;
  cfg.gossip_pps = 2.0;
  cfg.flood_device_count = scale.flood_devices;
  cfg.flood_pps = 400.0;
  cfg.ids_enabled = true;
  cfg.ids.window = util::SimTime::millis(100);
  // Flood devices send ~40 rows per window; the default floor (64) would
  // keep the mitigation ladder from ever engaging.
  cfg.ids.mitigation_config.min_packets = 16;
  cfg.ids_model = &model;
  return cfg;
}

struct Call {
  core::ShardWorkloadResult result;
  double wall_s = 0.0;
  double score_s = 0.0;  // wrapped serving only
  std::uint64_t score_rows = 0;
};

Call timed_call(const core::ShardWorkloadConfig& cfg, Tracer& tracer, const std::string& span,
                Report& report) {
  Call call;
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope s{tracer, span};
    call.result = core::run_shard_workload(cfg);
  }
  call.wall_s = seconds_between(t0, Clock::now());
  std::fprintf(stderr, "[fleet-100k] %s: %.3f s on %zu shards\n", span.c_str(), call.wall_s,
               cfg.shard_count);
  // The per-device send log (~100 MB here) is open-loop by construction
  // and not compared; free it so repeated calls do not stack it.
  std::string{}.swap(call.result.action_log);
  report.attempted += 1;
  return call;
}

struct FleetPass {
  std::vector<double> setup_s, generate_s, train_s;
  std::vector<Call> calls;
  std::unique_ptr<ml::Classifier> model;  // the last set-up's detector
  double peak_rss_mb = 0.0;  // after the first call; repeats only re-run it
  double wall_s = 0.0;
};

// Set-ups and calls until the calls add up to `seconds` (at least one).
// Every call runs right after its own set-up; the set-ups still missing
// for kSetupReps samples run after the last call, so the samples spread
// over the run instead of sharing one moment's machine speed. A traced
// pass serves through TimedClassifier with the telemetry collector on (for
// the barrier-stall and load-imbalance probes).
FleetPass fleet_pass(const FleetScale& scale, std::uint64_t seed, std::size_t shards,
                     Tracer& tracer, Report& report, double seconds) {
  FleetPass pass;
  const Clock::time_point pass0 = Clock::now();
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    ServedDetector served = train_served(std::make_unique<ml::KMeansDetector>(), tracer);
    pass.setup_s.push_back(seconds_between(t0, Clock::now()));
    pass.generate_s.push_back(served.generate_s);
    pass.train_s.push_back(served.train_s);
    report.attempted += 1;
    return served;
  };
  double measured_s = 0.0;
  do {
    ServedDetector served = set_up();
    TimedClassifier wrapped{*served.model, tracer};
    const ml::Classifier& model =
        tracer.enabled() ? static_cast<const ml::Classifier&>(wrapped) : *served.model;
    core::ShardWorkloadConfig cfg = fleet_config(scale, seed, shards, model);
    cfg.telemetry = tracer.enabled();
    Call call = timed_call(cfg, tracer, "core.run_shard_workload", report);
    call.score_s = wrapped.score_seconds();
    call.score_rows = wrapped.rows_scored();
    measured_s += call.wall_s;
    if (pass.calls.empty()) pass.peak_rss_mb = peak_rss_mb();
    pass.calls.push_back(std::move(call));
    pass.model = std::move(served.model);
  } while (measured_s < seconds);
  while (pass.setup_s.size() < kSetupReps) set_up();
  pass.wall_s = seconds_between(pass0, Clock::now());
  return pass;
}

// The detection surface (rows, verdicts, ActionLog) and the edge drops must
// match across shard counts. Delivered traffic may not: which packet a full
// queue drops depends on the order of same-nanosecond arrivals, which
// differs per layout. With `same_layout` it must match too.
void compare_calls(const core::ShardWorkloadResult& a, const core::ShardWorkloadResult& b,
                   bool same_layout, Report& report, const std::string& what) {
  const auto same = [&](bool ok, const char* field) {
    report.expect(ok, what + ": " + field + " differs");
  };
  same(a.ids_rows == b.ids_rows && a.ids_truth == b.ids_truth, "rows or truth");
  same(a.ids_predicted == b.ids_predicted && a.ids_windows == b.ids_windows,
       "predicted or windows");
  same(a.ids_row_digest == b.ids_row_digest && a.ids_verdict_digest == b.ids_verdict_digest,
       "row or verdict stream");
  same(a.ids_action_log == b.ids_action_log, "ActionLog");
  same(a.conservation_ok && b.conservation_ok, "packet conservation");
  same(a.acl_dropped == b.acl_dropped && a.ratelimit_dropped == b.ratelimit_dropped,
       "edge drops");
  if (!same_layout) return;
  same(a.digest_tserver == b.digest_tserver && a.digest_devices == b.digest_devices &&
           a.tserver_rx_packets == b.tserver_rx_packets &&
           a.device_rx_packets == b.device_rx_packets,
       "delivered traffic");
}

// ActionLog::joined() ends every action's line with '\n'.
std::uint64_t action_count(const std::string& joined) {
  return static_cast<std::uint64_t>(std::count(joined.begin(), joined.end(), '\n'));
}

// "<series> <kind> <domain> last=<v> peak=<v>" lines of the health report.
double health_value(const std::string& health, const std::string& series, const char* field) {
  std::istringstream lines{health};
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words{line};
    std::string name;
    words >> name;
    if (name != series) continue;
    std::string word;
    const std::string key = std::string{field} + "=";
    while (words >> word)
      if (word.rfind(key, 0) == 0) return std::stod(word.substr(key.size()));
  }
  return -1.0;
}

double close_s(const core::ShardWorkloadResult& r) {
  std::int64_t ns = 0;
  for (const std::int64_t c : r.ids_close_wall_ns) ns += c;
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

void run_fleet_100k(const Options& opt, Tracer& tracer, Report& report) {
  const FleetScale scale;
  const std::size_t shards = default_shards();
  report.shards = shards;
  Tracer off{false, tracer.run_id()};

  // A traced run measures one call per pass.
  const FleetPass bare =
      fleet_pass(scale, opt.seed, shards, off, report, opt.trace ? 0.0 : opt.seconds);
  const core::ShardWorkloadResult& r = bare.calls.front().result;
  for (std::size_t i = 1; i < bare.calls.size(); ++i)
    compare_calls(r, bare.calls[i].result, true, report, "fleet-100k repeated call");

  report.output("windows", static_cast<double>(r.ids_windows));
  report.output("rows", static_cast<double>(r.ids_rows));
  report.output("truth", static_cast<double>(r.ids_truth));
  report.output("predicted", static_cast<double>(r.ids_predicted));
  report.output("sent", static_cast<double>(r.upstream_sent + r.gossip_sent + r.flood_sent));
  report.output("flood_sent", static_cast<double>(r.flood_sent));
  report.output("mitigate.actions", static_cast<double>(action_count(r.ids_action_log)));
  report.output("mitigate.acl_dropped", static_cast<double>(r.acl_dropped));
  report.output("mitigate.ratelimit_dropped", static_cast<double>(r.ratelimit_dropped));
  report.output("conservation_ok", r.conservation_ok ? 1.0 : 0.0);

  if (!opt.trace) {
    EndToEnd e2e;
    e2e.setup_s = bare.setup_s;
    e2e.peak_rss_mb = bare.peak_rss_mb;
    for (const Call& c : bare.calls) {
      e2e.pkts_per_s.push_back(static_cast<double>(c.result.ids_rows) / c.wall_s);
      for (const std::int64_t ns : c.result.ids_close_wall_ns)
        e2e.close_ms.push_back(static_cast<double>(ns) * 1e-6);
    }
    e2e.report_to(report);
    return;
  }

  const FleetPass traced = fleet_pass(scale, opt.seed, shards, tracer, report, 0.0);
  const Call& tc = traced.calls.front();
  compare_calls(r, tc.result, true, report, "fleet-100k bare vs wrapped");

  // Build and teardown alone: the same topology and IDS with no traffic.
  // The generators reject a zero rate; at 1e-8 pps (first send ~1e8 s out,
  // still inside the simulated clock's range) no device sends in the run.
  core::ShardWorkloadConfig idle_cfg = fleet_config(scale, opt.seed, shards, *bare.model);
  idle_cfg.upstream_pps = 1e-8;
  idle_cfg.gossip_pps = 1e-8;
  idle_cfg.flood_device_count = 0;
  const Call idle = timed_call(idle_cfg, tracer, "core.shard_workload.zero_traffic", report);
  report.expect(idle.result.upstream_sent + idle.result.gossip_sent == 0,
                "fleet-100k: the zero-traffic run sent packets");

  // One event loop, for the parallel speedup and the cross-S equality check.
  double speedup = 1.0;
  if (shards > 1) {
    const FleetPass one = fleet_pass(scale, opt.seed, 1, off, report, 0.0);
    compare_calls(r, one.calls.front().result, false, report,
                  "fleet-100k S=1 vs S=" + std::to_string(shards));
    speedup = one.calls.front().wall_s / bare.calls.front().wall_s;
  }

  const core::ShardWorkloadResult& t = tc.result;
  const double close = close_s(t);
  std::int64_t close_max = 0;
  for (const std::int64_t ns : t.ids_close_wall_ns) close_max = std::max(close_max, ns);
  const double stall_ns = health_value(t.health_report, "shard.barrier_stall_ns", "last");
  const double imbalance = health_value(t.health_report, "shard.load_imbalance", "peak");
  report.expect(stall_ns >= 0.0 && imbalance >= 0.0,
                "fleet-100k: telemetry health report lacks the shard probes");

  const std::size_t setups = traced.setup_s.size();
  const double n = static_cast<double>(setups);
  report.metric("core.generate_s", median(traced.generate_s), "s", setups);
  report.metric("core.train_s", median(traced.train_s), "s", setups);
  report.metric("ml.fit_s.kmeans", tracer.total_s("ml.fit.kmeans") / n, "s", setups);
  report.metric("features.extract_s", tracer.total_s("features.extract_features") / n, "s",
                setups);
  report.metric("ml.score_s.kmeans", tc.score_s, "s");
  report.metric("ml.score_us_per_row.kmeans",
                tc.score_s * 1e6 / static_cast<double>(tc.score_rows), "us");
  report.metric("core.shard_workload.build_s", idle.wall_s, "s");
  report.metric("core.shard_sim.loop_s", tc.wall_s - idle.wall_s - close, "s");
  report.metric("core.shard_sim.barrier_stall_s", stall_ns * 1e-9, "s");
  report.metric("core.shard_sim.load_imbalance", imbalance, "ratio");
  report.metric("core.shard_sim.speedup_vs_s1", speedup, "ratio");
  report.metric("net.channel.shipped", static_cast<double>(t.channel_stats.shipped), "count");
  report.metric("net.channel.overflowed", static_cast<double>(t.channel_stats.overflowed),
                "count");
  report.metric("net.events", static_cast<double>(t.events_total), "count");
  report.metric("net.events_per_s", static_cast<double>(t.events_total) / tc.wall_s, "1/s");
  report.metric("core.shard_ids.close_s", close, "s", t.ids_close_wall_ns.size());
  report.metric("core.shard_ids.close_self_s", close - tc.score_s, "s",
                t.ids_close_wall_ns.size());
  report.metric("core.shard_ids.close_max_ms", static_cast<double>(close_max) * 1e-6, "ms",
                t.ids_close_wall_ns.size());
  report.metric("ids.windows", static_cast<double>(t.ids_windows), "count");
  report.metric("ids.rows", static_cast<double>(t.ids_rows), "count");
  report.metric("ids.truth", static_cast<double>(t.ids_truth), "count");
  report.metric("ids.predicted", static_cast<double>(t.ids_predicted), "count");
  report.metric("mitigate.actions", static_cast<double>(action_count(t.ids_action_log)), "count");
  report.metric("mitigate.acl_dropped", static_cast<double>(t.acl_dropped), "count");
  report.metric("mitigate.ratelimit_dropped", static_cast<double>(t.ratelimit_dropped), "count");
  report.metric("obs.trace_overhead", traced.wall_s / bare.wall_s, "ratio");
}

void selftest_fleet(const Options& opt, Tracer& tracer, Report& report) {
  const FleetScale scale{.devices = 10000, .clusters = 64, .flood_devices = 200,
                         .duration = util::SimTime::millis(650)};
  const std::size_t shards = default_shards();
  report.shards = shards;
  Tracer off{false, tracer.run_id()};
  const Call bare = fleet_pass(scale, opt.seed, shards, off, report, 0.0).calls.front();
  const Call wrapped = fleet_pass(scale, opt.seed, shards, tracer, report, 0.0).calls.front();
  compare_calls(bare.result, wrapped.result, true, report, "selftest fleet");
  report.expect(bare.result.ids_windows > 0 && bare.result.ids_predicted > 0 &&
                    action_count(bare.result.ids_action_log) > 0,
                "selftest fleet: nothing scored or enforced");
  report.output("fleet.rows", static_cast<double>(bare.result.ids_rows));
  report.output("fleet.predicted", static_cast<double>(bare.result.ids_predicted));
}

}  // namespace perfbench

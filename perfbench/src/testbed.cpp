// Workload "testbed-1k": a 1000-device core::Testbed on one thread with
// bench_scale's dense benign mix and long-delay links, a SYN/UDP/ACK burst
// cycle from non-spoofing bots, a RealTimeIds on 500 ms windows serving an
// RF, and closed-loop mitigation. The flat single-loop path (calendar
// scheduler, packet pool, TCP with SYN cookies, apps, botnet, per-packet
// capture, window close, mitigate) does most of the work; RF scoring is
// most of the rest.
//
// Set-up: train the served RF, then construct and deploy the Testbed with
// its IDS and mitigation. The measured phase is Testbed::run() plus
// teardown.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/testbed.hpp"
#include "ml/random_forest.hpp"

namespace perfbench {
namespace {

constexpr util::SimTime kWindow = util::SimTime::millis(500);

core::Scenario testbed_scenario(std::uint64_t seed, std::size_t devices,
                                util::SimTime duration) {
  core::Scenario s = core::detection_scenario(seed);
  s.device_count = devices;
  s.duration = duration;
  s.infection_start = util::SimTime::millis(200);
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
  // Bots keep their own addresses (no spoof_sources), so per-source edge
  // rules take effect.
  // Long-delay links keep many packets in flight.
  s.topology.access_link.delay = util::SimTime::millis(30);
  s.topology.access_link.queue_bytes = 512 * 1024;
  s.topology.uplink.rate_bps = 400e6;
  s.topology.uplink.delay = util::SimTime::millis(10);
  s.topology.uplink.queue_bytes = 4 * 1024 * 1024;
  s.churn.events_per_device_per_second = 0.0;
  return s;
}

// Outputs and timings of one measured phase.
struct Measured {
  double run_s = 0.0, teardown_s = 0.0;
  double score_s = 0.0;  // wrapped serving only
  std::uint64_t score_rows = 0;
  std::vector<ids::WindowReport> windows;
  ids::IdsSummary summary;
  std::string action_log;
  std::uint64_t actions = 0;
  std::uint64_t acl_dropped = 0, ratelimit_dropped = 0;
  std::uint64_t completions = 0, failures = 0;
  std::uint64_t infected = 0;
  std::uint64_t events = 0, steady_allocs = 0, queue_high_water = 0;
};

struct TestbedPass {
  std::vector<double> setup_s, generate_s, train_s, deploy_s;
  std::vector<Measured> reps;
  double peak_rss_mb = 0.0;  // after the first measured phase; repeats only re-run it
  double wall_s = 0.0;
};

// Set-ups and measured phases until the measured phases add up to
// `seconds` (at least one). Every measured phase runs on its own set-up;
// the set-ups still missing for kSetupReps samples run after the last
// phase, so the samples spread over the run instead of sharing one
// moment's machine speed. A traced pass serves the RF through the
// TimedClassifier and splits run() at half time to read the pool's
// steady-state allocations (same events, same outputs).
TestbedPass testbed_pass(const core::Scenario& scenario, Tracer& tracer, Report& report,
                         double seconds) {
  const bool traced = tracer.enabled();
  TestbedPass pass;
  const Clock::time_point pass0 = Clock::now();

  ids::IdsConfig ids_config;
  ids_config.window = kWindow;
  ServedDetector served;
  std::unique_ptr<TimedClassifier> wrapper;
  std::unique_ptr<core::Testbed> tb;
  ids::RealTimeIds* ids = nullptr;
  mitigate::MitigationController* mitigation = nullptr;
  const auto set_up = [&] {
    tb.reset();  // a testbed goes before the model it serves
    wrapper.reset();
    const Clock::time_point t0 = Clock::now();
    served = train_served(std::make_unique<ml::RandomForest>(), tracer);
    const ml::Classifier* model = served.model.get();
    if (traced) {
      wrapper = std::make_unique<TimedClassifier>(*served.model, tracer);
      model = wrapper.get();
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope span{tracer, "core.testbed.deploy"};
      tb = std::make_unique<core::Testbed>(scenario);
      tb->deploy();
      ids = &tb->deploy_ids(*model, ids_config);
      mitigation = &tb->enable_mitigation();
    }
    const Clock::time_point t2 = Clock::now();
    pass.setup_s.push_back(seconds_between(t0, t2));
    pass.generate_s.push_back(served.generate_s);
    pass.train_s.push_back(served.train_s);
    pass.deploy_s.push_back(seconds_between(t1, t2));
    report.attempted += 1;
  };

  double measured_s = 0.0;
  do {
    set_up();
    Measured m;
    net::Simulator& sim = tb->network().simulator();
    const Clock::time_point r0 = Clock::now();
    {
      SpanScope span{tracer, "core.testbed.run"};
      if (traced) {
        tb->run_until(scenario.duration / 2);
        m.steady_allocs = sim.packet_pool().stats().allocated_packets;
      }
      tb->run();
    }
    const Clock::time_point r1 = Clock::now();
    m.steady_allocs = sim.packet_pool().stats().allocated_packets - m.steady_allocs;
    m.events = sim.events_executed();
    m.queue_high_water = sim.queue_high_water();
    m.windows = ids->reports();
    m.summary = ids->summarize();
    m.action_log = mitigation->action_log().joined();
    m.actions = mitigation->action_log().size();
    m.acl_dropped = tb->topology().router->stats().dropped_acl;
    m.ratelimit_dropped = tb->topology().router->stats().dropped_ratelimit;
    m.completions = tb->benign_completions();
    m.failures = tb->benign_failures();
    m.infected = tb->infected_devices();
    {
      SpanScope span{tracer, "core.testbed.teardown"};
      tb.reset();
    }
    const Clock::time_point r2 = Clock::now();
    report.attempted += 1;
    m.run_s = seconds_between(r0, r1);
    m.teardown_s = seconds_between(r1, r2);
    if (wrapper) {
      m.score_s = wrapper->score_seconds();
      m.score_rows = wrapper->rows_scored();
    }
    measured_s += m.run_s + m.teardown_s;
    std::fprintf(stderr, "[testbed-1k] set-up %.3f s, run %.3f s, teardown %.3f s\n",
                 pass.setup_s.back(), m.run_s, m.teardown_s);
    if (pass.reps.empty()) pass.peak_rss_mb = peak_rss_mb();
    pass.reps.push_back(std::move(m));
  } while (measured_s < seconds);
  while (pass.setup_s.size() < kSetupReps) set_up();
  tb.reset();
  pass.wall_s = seconds_between(pass0, Clock::now());
  return pass;
}

// Bare and wrapped serving must agree on every verdict-derived output.
void compare_runs(const Measured& a, const Measured& b, Report& report,
                  const std::string& what) {
  bool same = a.windows.size() == b.windows.size();
  for (std::size_t w = 0; same && w < a.windows.size(); ++w) {
    same = a.windows[w].window_index == b.windows[w].window_index &&
           a.windows[w].packets == b.windows[w].packets &&
           a.windows[w].truth_malicious == b.windows[w].truth_malicious &&
           a.windows[w].predicted_malicious == b.windows[w].predicted_malicious &&
           a.windows[w].accuracy == b.windows[w].accuracy;
  }
  report.expect(same, what + ": per-window verdicts differ");
  report.expect(a.summary.average_accuracy == b.summary.average_accuracy &&
                    a.summary.min_accuracy == b.summary.min_accuracy &&
                    a.summary.overall_accuracy == b.summary.overall_accuracy &&
                    a.summary.windows == b.summary.windows &&
                    a.summary.packets == b.summary.packets &&
                    a.summary.memory_kb == b.summary.memory_kb &&
                    a.summary.confusion.tp() == b.summary.confusion.tp() &&
                    a.summary.confusion.fp() == b.summary.confusion.fp() &&
                    a.summary.confusion.fn() == b.summary.confusion.fn(),
                what + ": IdsSummary differs");
  report.expect(a.action_log == b.action_log && a.acl_dropped == b.acl_dropped &&
                    a.ratelimit_dropped == b.ratelimit_dropped,
                what + ": mitigation ActionLog or drops differ");
  report.expect(a.completions == b.completions && a.failures == b.failures,
                what + ": benign completions or failures differ");
}

}  // namespace

void run_testbed_1k(const Options& opt, Tracer& tracer, Report& report) {
  const core::Scenario scenario =
      testbed_scenario(opt.seed, 1000, util::SimTime::seconds(10));
  Tracer off{false, tracer.run_id()};
  // A traced run measures one phase of each kind.
  const TestbedPass bare =
      testbed_pass(scenario, off, report, opt.trace ? 0.0 : opt.seconds);
  const Measured& b = bare.reps.front();
  for (std::size_t i = 1; i < bare.reps.size(); ++i)
    compare_runs(b, bare.reps[i], report, "testbed-1k repeated run");

  report.output("windows", static_cast<double>(b.summary.windows));
  report.output("rows", static_cast<double>(b.summary.packets));
  report.output("truth", static_cast<double>(truth_of(b.summary)));
  report.output("predicted", static_cast<double>(predicted_of(b.summary)));
  report.output("acc.rf", b.summary.average_accuracy);
  report.output("infected_devices", static_cast<double>(b.infected));
  report.output("mitigate.actions", static_cast<double>(b.actions));
  report.output("mitigate.acl_dropped", static_cast<double>(b.acl_dropped));
  report.output("mitigate.ratelimit_dropped", static_cast<double>(b.ratelimit_dropped));
  report.output("benign.completions", static_cast<double>(b.completions));
  report.output("benign.failures", static_cast<double>(b.failures));

  if (!opt.trace) {
    EndToEnd e2e;
    e2e.setup_s = bare.setup_s;
    e2e.peak_rss_mb = bare.peak_rss_mb;
    for (const Measured& m : bare.reps) {
      e2e.pkts_per_s.push_back(static_cast<double>(m.summary.packets) /
                               (m.run_s + m.teardown_s));
      for (const ids::WindowReport& w : m.windows)
        e2e.close_ms.push_back(static_cast<double>(w.cpu_feature_ns + w.cpu_inference_ns) *
                               1e-6);
    }
    e2e.report_to(report);
    return;
  }

  const TestbedPass traced = testbed_pass(scenario, tracer, report, 0.0);
  const Measured& t = traced.reps.front();
  compare_runs(b, t, report, "testbed-1k bare vs wrapped");

  std::vector<double> feature_ms;
  double feature_s = 0.0;
  for (const ids::WindowReport& w : t.windows) {
    feature_ms.push_back(static_cast<double>(w.cpu_feature_ns) * 1e-6);
    feature_s += static_cast<double>(w.cpu_feature_ns) * 1e-9;
  }
  const std::size_t setups = traced.setup_s.size();
  const double n = static_cast<double>(setups);
  report.metric("core.generate_s", median(traced.generate_s), "s", setups);
  report.metric("core.train_s", median(traced.train_s), "s", setups);
  report.metric("ml.fit_s.rf", tracer.total_s("ml.fit.rf") / n, "s", setups);
  report.metric("features.extract_s", tracer.total_s("features.extract_features") / n, "s",
                setups);
  report.metric("ml.score_s.rf", t.score_s, "s");
  report.metric("ml.score_us_per_row.rf",
                t.score_s * 1e6 / static_cast<double>(t.score_rows), "us");
  report.metric("features.window_ms", median(feature_ms), "ms", feature_ms.size());
  report.metric("core.testbed.deploy_s", median(traced.deploy_s), "s", setups);
  report.metric("core.testbed.run_self_s", t.run_s - t.score_s - feature_s, "s");
  report.metric("core.testbed.teardown_s", t.teardown_s, "s");
  report.metric("net.events", static_cast<double>(t.events), "count");
  report.metric("net.events_per_s", static_cast<double>(t.events) / t.run_s, "1/s");
  report.metric("net.pool.steady_allocs", static_cast<double>(t.steady_allocs), "count");
  report.metric("net.queue_high_water", static_cast<double>(t.queue_high_water), "count");
  report.metric("ids.windows", static_cast<double>(t.summary.windows), "count");
  report.metric("ids.rows", static_cast<double>(t.summary.packets), "count");
  report.metric("ids.truth", static_cast<double>(truth_of(t.summary)), "count");
  report.metric("ids.predicted", static_cast<double>(predicted_of(t.summary)), "count");
  report.metric("ids.acc.rf", t.summary.average_accuracy, "fraction");
  report.metric("mitigate.actions", static_cast<double>(t.actions), "count");
  report.metric("mitigate.acl_dropped", static_cast<double>(t.acl_dropped), "count");
  report.metric("mitigate.ratelimit_dropped", static_cast<double>(t.ratelimit_dropped),
                "count");
  report.metric("benign.completions", static_cast<double>(t.completions), "count");
  report.metric("benign.failures", static_cast<double>(t.failures), "count");
  report.metric("obs.trace_overhead", traced.wall_s / bare.wall_s, "ratio");
}

void selftest_testbed(const Options& opt, Tracer& tracer, Report& report) {
  const core::Scenario scenario = testbed_scenario(opt.seed, 48, util::SimTime::seconds(4));
  Tracer off{false, tracer.run_id()};
  const Measured bare = testbed_pass(scenario, off, report, 0.0).reps.front();
  const Measured wrapped = testbed_pass(scenario, tracer, report, 0.0).reps.front();
  compare_runs(bare, wrapped, report, "selftest testbed");
  report.expect(bare.summary.windows > 0 && predicted_of(bare.summary) > 0,
                "selftest testbed: nothing scored");
  report.output("testbed.windows", static_cast<double>(bare.summary.windows));
  report.output("testbed.rows", static_cast<double>(bare.summary.packets));
  report.output("testbed.predicted", static_cast<double>(predicted_of(bare.summary)));
}

}  // namespace perfbench

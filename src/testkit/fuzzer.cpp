#include "testkit/fuzzer.hpp"

#include <cstdio>
#include <string>

#include "core/testbed.hpp"
#include "testkit/fault_injector.hpp"
#include "util/rng.hpp"

namespace ddoshield::testkit {

using util::SimTime;

core::Scenario Fuzzer::generate_scenario(std::uint64_t seed) {
  util::Rng root{seed};
  util::Rng r = root.fork("scenario");

  core::Scenario s;
  s.seed = seed;
  s.device_count = static_cast<std::size_t>(2 + r.uniform_u64(9));  // 2..10
  s.duration = SimTime::millis(r.uniform_int(3000, 6000));
  s.infection_start = SimTime::millis(r.uniform_int(200, 1000));
  s.vulnerable_fraction = r.uniform(0.5, 1.0);

  s.benign.http_session_rate = r.uniform(0.2, 1.5);
  s.benign.http_mean_requests = r.uniform(1.0, 6.0);
  s.benign.video_session_rate = r.uniform(0.02, 0.3);
  s.benign.video_mean_watch_seconds = r.uniform(2.0, 10.0);
  s.benign.ftp_session_rate = r.uniform(0.02, 0.2);
  s.benign.ftp_mean_files = r.uniform(1.0, 4.0);
  s.benign.telemetry_publish_rate = r.bernoulli(0.3) ? r.uniform(0.5, 3.0) : 0.0;

  s.topology.access_link.rate_bps = r.uniform(5e6, 50e6);
  s.topology.access_link.delay = SimTime::micros(r.uniform_int(200, 5000));
  s.topology.access_link.queue_bytes =
      static_cast<std::uint32_t>(r.uniform_int(16, 128)) * 1024u;
  s.topology.uplink.rate_bps = r.uniform(20e6, 200e6);
  s.topology.uplink.delay = SimTime::micros(r.uniform_int(200, 2000));
  s.topology.uplink.queue_bytes =
      static_cast<std::uint32_t>(r.uniform_int(64, 512)) * 1024u;

  // 0-4 attack bursts inside the window where bots can exist and the
  // burst still ends before the scenario does.
  const std::uint64_t bursts = r.uniform_u64(5);
  for (std::uint64_t i = 0; i < bursts; ++i) {
    core::AttackBurst b;
    b.duration = SimTime::millis(r.uniform_int(300, 1200));
    const std::int64_t earliest = (s.infection_start + SimTime::millis(500)).ns();
    const std::int64_t latest = (s.duration - b.duration).ns();
    if (latest <= earliest) continue;
    b.start = SimTime::nanos(earliest + static_cast<std::int64_t>(r.uniform_u64(
                                            static_cast<std::uint64_t>(latest - earliest))));
    b.type = static_cast<botnet::AttackType>(r.uniform_u64(3));
    b.packets_per_second_per_bot = r.uniform(100.0, 500.0);
    b.spoof_sources = r.bernoulli(0.4);
    s.attacks.push_back(b);
  }

  if (r.bernoulli(0.25)) {
    s.churn.events_per_device_per_second = r.uniform(0.02, 0.1);
    s.churn.down_time = SimTime::millis(r.uniform_int(300, 1500));
  }
  return s;
}

namespace {

void log_packet(EventLog& log, SimTime now, const net::Packet& pkt, net::TapDirection dir) {
  const char d = dir == net::TapDirection::kSent ? 's' : 'r';
  char line[224];
  std::snprintf(line, sizeof line,
                "t=%lld %c uid=%llu %s:%u>%s:%u proto=%u flags=%u seq=%u ack=%u len=%u "
                "origin=%u corrupt=%d",
                static_cast<long long>(now.ns()), d,
                static_cast<unsigned long long>(pkt.uid), pkt.src.to_string().c_str(),
                pkt.src_port, pkt.dst.to_string().c_str(), pkt.dst_port,
                static_cast<unsigned>(pkt.proto), pkt.tcp_flags, pkt.seq, pkt.ack,
                pkt.payload_bytes, static_cast<unsigned>(pkt.origin), pkt.corrupted ? 1 : 0);
  log.append(line);
}

// Deterministic fault plan drawn from the seed: which links flap, which
// degrade, which devices crash, and when — all inside [0.1, 0.9] of the
// scenario so recovery lands before teardown.
void plan_faults(core::Testbed& bed, FaultInjector& injector, std::uint64_t seed) {
  util::Rng r = util::Rng{seed}.fork("faultplan");
  const core::Scenario& s = bed.scenario();
  const net::StarTopology& topo = bed.topology();
  const std::int64_t dur = s.duration.ns();

  const std::uint64_t n = r.uniform_u64(7);  // 0..6 faults
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimTime at = SimTime::nanos(dur / 10 + static_cast<std::int64_t>(
                                                     r.uniform_u64(static_cast<std::uint64_t>(dur / 2))));
    const SimTime down = SimTime::nanos(dur / 50 + static_cast<std::int64_t>(r.uniform_u64(
                                                       static_cast<std::uint64_t>(dur / 5))));
    const std::size_t dev = static_cast<std::size_t>(r.uniform_u64(topo.devices.size()));
    switch (r.uniform_u64(4)) {
      case 0:  // flap one device's access link
        injector.flap_link(topo.devices[dev]->link_at(0), at, down,
                           "access_" + std::to_string(dev));
        break;
      case 1:  // flap the victim uplink — the paper's worst-case outage
        injector.flap_link(*topo.uplink, at, down, "uplink");
        break;
      case 2: {  // degrade a random link: loss + corruption + jitter
        net::LinkFault fault;
        fault.drop_probability = r.uniform(0.0, 0.3);
        fault.corrupt_probability = r.uniform(0.0, 0.1);
        fault.extra_delay = SimTime::micros(r.uniform_int(0, 20000));
        fault.jitter = SimTime::micros(r.uniform_int(0, 10000));
        net::Network& net = bed.network();
        const std::size_t li = static_cast<std::size_t>(r.uniform_u64(net.link_count()));
        injector.degrade_link(net.link_at(li), at, down, fault,
                              "link_" + std::to_string(li));
        break;
      }
      default:  // crash + restart a device container
        injector.crash_node(
            at, down, [&bed, dev]() { bed.crash_device(dev); },
            [&bed, dev]() { bed.restart_device(dev); }, "dev_" + std::to_string(dev));
        break;
    }
  }
}

}  // namespace

FuzzResult Fuzzer::run(std::uint64_t seed) {
  FuzzResult result;
  result.seed = seed;
  result.scenario = generate_scenario(seed);

  core::Testbed bed{result.scenario};
  bed.deploy();
  net::Simulator& sim = bed.network().simulator();

  std::unique_ptr<InvariantChecker> checker;
  if (options_.check_invariants) {
    checker = std::make_unique<InvariantChecker>(sim);
    checker->watch_network(bed.network());
  }

  if (options_.log_packets) {
    bed.topology().tserver->add_tap(
        [&result, &sim](const net::Packet& pkt, net::TapDirection dir) {
          ++result.packets_tapped;
          log_packet(result.log, sim.now(), pkt, dir);
        });
  }

  FaultInjector injector{sim, seed, &result.log};
  if (options_.enable_faults) {
    plan_faults(bed, injector, seed);
  }

  ids::RealTimeIds* ids = nullptr;
  if (options_.ids_model != nullptr) {
    ids::IdsConfig cfg;
    cfg.window = options_.ids_window;
    if (options_.enable_lifecycle) {
      // Aggressive cadence: fuzz scenarios last only a handful of seconds,
      // so the periodic trigger, short cooldown, and one-window deployment
      // pipeline make real swaps land mid-run instead of after teardown.
      cfg.lifecycle.enabled = true;
      cfg.lifecycle.retrain_every_windows = 3;
      cfg.lifecycle.cooldown_windows = 2;
      cfg.lifecycle.apply_latency_windows = 1;
      cfg.lifecycle.replay_capacity_rows = 1024;
      cfg.lifecycle.min_replay_rows = 32;
      cfg.lifecycle.drift.baseline_windows = 2;
    }
    ids = &bed.deploy_ids(*options_.ids_model, cfg);
    if (options_.enable_mitigation) bed.enable_mitigation();
  }

  bed.run();
  // Let retransmission chains, TIME_WAIT timers, and fault recoveries
  // finish so per-link conservation can be checked exactly.
  sim.run_until(result.scenario.duration + options_.drain_grace);

  if (ids != nullptr) {
    for (const auto& w : ids->reports()) {
      // Integer fields only: the cpu_* members are wall-clock measurements
      // and would break byte-identical replay.
      result.log.append("window=" + std::to_string(w.window_index) +
                        " start=" + std::to_string(w.window_start.ns()) +
                        " packets=" + std::to_string(w.packets) +
                        " truth_mal=" + std::to_string(w.truth_malicious) +
                        " pred_mal=" + std::to_string(w.predicted_malicious) +
                        " single=" + std::to_string(w.single_class ? 1 : 0) +
                        " mv=" + std::to_string(w.model_version));
    }
    result.ids_windows = ids->reports().size();
    if (ids->lifecycle() != nullptr) {
      // Pin the whole drift→retrain→swap sequence in the replayed log:
      // one line per applied swap, one summary of the lifecycle counters.
      for (const auto& sw : ids->lifecycle()->swaps()) {
        result.log.append("swap version=" + std::to_string(sw.version) +
                          " window=" + std::to_string(sw.window_index) +
                          " trigger=" + std::to_string(sw.trigger_window) +
                          " drift=" + std::to_string(sw.drift_triggered ? 1 : 0));
      }
      const auto st = ids->lifecycle()->stats();
      result.log.append(
          "lifecycle retrains=" + std::to_string(st.retrains_triggered) +
          " completed=" + std::to_string(st.retrains_completed) +
          " noops=" + std::to_string(st.retrain_noops) +
          " swaps=" + std::to_string(st.swaps_applied) +
          " drift_alarms=" + std::to_string(st.drift_alarms) +
          " version=" + std::to_string(ids->model_version()));
      result.lifecycle_swaps = st.swaps_applied;
      result.lifecycle_retrains = st.retrains_triggered;
    }
  }

  if (bed.mitigation() != nullptr) {
    // Action lines are integer-only, so they replay byte for byte; the
    // summary also pins the enforcement drop counters and cookie count.
    for (const auto& line : bed.mitigation()->action_log().lines()) {
      result.log.append(line);
    }
    result.mitigation_actions = bed.mitigation()->action_log().size();
    const net::NodeStats& router = bed.topology().router->stats();
    result.log.append(
        "mitigation actions=" + std::to_string(result.mitigation_actions) +
        " acl_dropped=" + std::to_string(router.dropped_acl) +
        " ratelimit_dropped=" + std::to_string(router.dropped_ratelimit) +
        " cookies_sent=" + std::to_string(bed.topology().tserver->tcp().syn_cookies_sent()));
  }

  if (checker) {
    result.invariants = checker->finalize();
    for (const auto& v : result.invariants.violations) {
      result.log.append("violation: " + v);
    }
  }

  result.faults_scheduled = injector.faults_scheduled();
  result.faults_fired = injector.faults_fired();
  result.events_executed = sim.events_executed();
  result.end_time = sim.now();
  result.log.append("end t=" + std::to_string(result.end_time.ns()) +
                    " events=" + std::to_string(result.events_executed) +
                    " tapped=" + std::to_string(result.packets_tapped) +
                    " faults=" + std::to_string(result.faults_fired) + " violations=" +
                    std::to_string(result.invariants.total_violations));
  return result;
}

}  // namespace ddoshield::testkit

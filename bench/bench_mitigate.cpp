// bench_mitigate: mitigation-path overhead microbenchmark. A benign-only
// scenario (no infection, no attacks) runs with the closed-loop defense
// disabled and enabled. With no malicious verdicts the controller installs
// nothing, so the cost measured is exactly the always-on machinery: the
// router's per-packet IngressFilter hook (two branches on the empty-rule
// fast path), the verdict-sink buffering, and the per-window controller
// tick. The gate holds that machinery under --budget (3% in CI).
//
// The gate is relative, like bench_obs': each rep runs off and on over the
// same scenario in one process and yields one paired on/off ratio of tap
// packets/s; the gate takes the median of those per-rep ratios
// (bench::paired_ratios). Unlike bench_obs, the two legs of a rep advance
// in alternating 100 ms slices of sim time rather than one after the
// other: on a shared 4-vCPU host, back-to-back ~0.4 s runs scattered 11-15%
// (standard deviation of the per-rep ratio), which no practical rep count
// resolves to 3%, while slice-interleaved legs scatter ~1.5%.
//
// Defense must also be invisible on benign traffic: packets_total is
// deterministic and equal across off/on reps (same seed, zero
// enforcement); events_total is deterministic per mode (the controller's
// own window ticks are scheduled events, so the on runs execute a handful
// more). Both are pinned by the committed golden together with
// mitigation_actions (always 1 — the boot-time syn_cookies_on line; the
// cookie watermark is set unreachably high so cookies never alter a
// handshake) and acl/ratelimit drops (always 0).
//
// Outputs BENCH_MITIGATE.json. With --golden FILE the deterministic
// counters are checked against the committed golden (the CI perf-smoke
// gate); --write-golden regenerates it.
//
// Usage:
//   bench_mitigate [--reps N] [--budget FRACTION] [--no-gate] [--out FILE]
//                  [--golden FILE] [--write-golden FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "mitigate/mitigation.hpp"
#include "ml/classifier.hpp"
#include "net/simulator.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

namespace {

// Larger than bench_obs' scenario: benign-only traffic is far sparser than
// a flood, so the run must be longer for wall time to rise above scheduler
// noise and make a 3% gate meaningful.
constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::size_t kDevices = 24;
constexpr std::int64_t kSimSeconds = 30;
// Interleaving grain: the legs of a rep alternate every 100 ms of sim time.
constexpr int kSlices = kSimSeconds * 10;

// The bench isolates the mitigation path, not the model: a constant-benign
// classifier needs no training run and guarantees zero enforcement, so any
// off/on throughput delta is pure plumbing overhead.
class AlwaysBenign : public ml::Classifier {
 public:
  std::string name() const override { return "always-benign"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  int predict(std::span<const double>) const override { return 0; }
  bool trained() const override { return true; }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 0; }
  std::uint64_t inference_scratch_bytes() const override { return 0; }
};

struct RunResult {
  bool mitigate_on = false;
  double wall_seconds = 0.0;
  double packets_per_sec = 0.0;
  // Deterministic across reps and machines.
  std::uint64_t events_total = 0;
  std::uint64_t packets_total = 0;
  std::uint64_t actions = 0;
  std::uint64_t acl_dropped = 0;
  std::uint64_t ratelimit_dropped = 0;
  std::uint64_t cookies_sent = 0;
};

// Dense benign-only mix: every tapped packet crosses the router's ingress
// hook, so the per-packet fast path dominates the measured work.
core::Scenario make_benign_scenario() {
  core::Scenario s = core::detection_scenario(kScenarioSeed);
  s.device_count = kDevices;
  s.duration = util::SimTime::seconds(kSimSeconds);
  s.vulnerable_fraction = 0.0;  // nothing to infect
  s.attacks.clear();
  // Dense enough that the per-packet ingress hook dominates, but below the
  // SYN-cookie half-open watermark: benign handshakes must complete the
  // stateful way in both modes or off/on packet counts diverge.
  s.benign.http_session_rate = 2.0;
  s.benign.video_session_rate = 0.3;
  s.benign.ftp_session_rate = 0.2;
  s.churn.events_per_device_per_second = 0.0;
  return s;
}

std::unique_ptr<core::Testbed> start_leg(bool mitigate_on, const ml::Classifier& model) {
  auto tb = std::make_unique<core::Testbed>(make_benign_scenario());
  tb->deploy();
  tb->deploy_ids(model);
  if (mitigate_on) {
    // All mechanisms armed, none allowed to trigger: the dense benign mix
    // does queue up transient half-opens, so the default backlog/2 cookie
    // watermark would fire and change handshake packet counts. An
    // unreachable watermark keeps the per-SYN cookie check (the actual
    // overhead) while guaranteeing the stateful path in both modes.
    mitigate::MitigationConfig cfg;
    cfg.syn_cookie_watermark = 1u << 20;  // never reached by benign load
    tb->enable_mitigation(cfg);
  }
  return tb;
}

// Runs slice `slice` of the leg: up to its end in sim time, and for the
// last slice the rest of Testbed::run(). Returns the wall seconds taken.
double step_leg(core::Testbed& tb, int slice) {
  const auto t0 = std::chrono::steady_clock::now();
  if (slice + 1 < kSlices) {
    tb.run_until(util::SimTime::seconds(kSimSeconds) * (slice + 1) / kSlices);
  } else {
    tb.run();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

RunResult finish_leg(bool mitigate_on, core::Testbed& tb, double wall_seconds) {
  RunResult r;
  r.mitigate_on = mitigate_on;
  r.wall_seconds = wall_seconds;
  r.events_total = tb.network().simulator().events_executed();
  r.packets_total = tb.tap().packets_captured();
  if (mitigate_on) {
    r.actions = tb.mitigation()->action_log().size();
    const net::NodeStats& router = tb.topology().router->stats();
    r.acl_dropped = router.dropped_acl;
    r.ratelimit_dropped = router.dropped_ratelimit;
    r.cookies_sent = tb.topology().tserver->tcp().syn_cookies_sent();
  }
  r.packets_per_sec = static_cast<double>(r.packets_total) /
                      (r.wall_seconds > 0 ? r.wall_seconds : 1e-9);
  return r;
}

void write_json(const std::string& path, const std::vector<RunResult>& runs,
                const std::vector<double>& ratios, double budget) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"bench_mitigate\",\n  \"config\": {\n";
  out << "    \"devices\": " << kDevices << ", \"sim_seconds\": " << kSimSeconds
      << ", \"scenario_seed\": " << kScenarioSeed << ",\n";
  out << "    \"reps\": " << ratios.size() << ",\n";
  out << "    \"overhead_budget\": " << budget << ",\n";
  out << "    \"slice_ms\": " << kSimSeconds * 1000 / kSlices << ",\n";
  out << "    \"notes\": \"benign-only traffic; each rep runs mitigation off and on in "
         "one process, the two legs alternating every slice_ms of sim time; the gate "
         "compares the median of the per-rep on/off packets/s ratios, so only the "
         "relative overhead matters. events_total/packets_total/actions/drops are "
         "deterministic and golden-pinned; *_per_sec is machine-dependent.\"\n  },\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mitigate\": %s, \"wall_seconds\": %.3f, \"packets_per_sec\": "
                  "%.0f, \"events_total\": %llu, \"packets_total\": %llu, "
                  "\"actions\": %llu, \"drops\": %llu}%s\n",
                  r.mitigate_on ? "true" : "false", r.wall_seconds, r.packets_per_sec,
                  static_cast<unsigned long long>(r.events_total),
                  static_cast<unsigned long long>(r.packets_total),
                  static_cast<unsigned long long>(r.actions),
                  static_cast<unsigned long long>(r.acl_dropped + r.ratelimit_dropped),
                  i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  const double on_over_off = bench::median(ratios);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"comparison\": {\"on_over_off_median\": %.4f, "
                "\"overhead_fraction\": %.4f}\n",
                on_over_off, 1.0 - on_over_off);
  out << buf << "}\n";

  std::ofstream file{path};
  file << out.str();
  std::printf("wrote %s\n", path.c_str());
}

// Golden format: one "events_off events_on packets_total actions" line
// ('#' lines are comments). actions comes from the mitigation-on reps.
int check_golden(const std::string& path, const RunResult& off, const RunResult& on) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::uint64_t events_off = 0, events_on = 0, packets = 0, actions = 0;
    if (!(in >> events_off >> events_on >> packets >> actions)) {
      std::fprintf(stderr, "GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    if (off.events_total != events_off || on.events_total != events_on ||
        off.packets_total != packets || on.actions != actions) {
      std::fprintf(stderr,
                   "GOLDEN FAIL: expected events_off=%llu events_on=%llu packets=%llu "
                   "actions=%llu, got events_off=%llu events_on=%llu packets=%llu "
                   "actions=%llu\n",
                   static_cast<unsigned long long>(events_off),
                   static_cast<unsigned long long>(events_on),
                   static_cast<unsigned long long>(packets),
                   static_cast<unsigned long long>(actions),
                   static_cast<unsigned long long>(off.events_total),
                   static_cast<unsigned long long>(on.events_total),
                   static_cast<unsigned long long>(off.packets_total),
                   static_cast<unsigned long long>(on.actions));
      return 1;
    }
    std::printf("golden OK: counters match %s\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "GOLDEN FAIL: %s contains no counter line\n", path.c_str());
  return 1;
}

void write_golden(const std::string& path, const RunResult& off, const RunResult& on) {
  std::ofstream file{path};
  file << "# bench_mitigate deterministic counters: events_off events_on "
          "packets_total actions\n";
  file << "# Regenerate with: bench_mitigate --write-golden <this file>\n";
  file << off.events_total << " " << on.events_total << " " << off.packets_total << " "
       << on.actions << "\n";
  std::printf("wrote golden %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // At ~1.5% scatter per rep, the median of 15 has a standard error near
  // 0.5%: on the 4-vCPU host the build passed 20 of 20 runs (medians
  // 0.987-1.002) and a planted 6% on-leg slowdown failed 10 of 10.
  int reps = 15;
  double budget = 0.03;
  bool gate = true;
  std::string out_path = "BENCH_MITIGATE.json";
  std::string golden_path;
  std::string write_golden_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--reps") {
      reps = std::max(1, std::atoi(next().c_str()));
    } else if (arg == "--budget") {
      budget = std::atof(next().c_str());
    } else if (arg == "--no-gate") {
      gate = false;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--golden") {
      golden_path = next();
    } else if (arg == "--write-golden") {
      write_golden_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_mitigate [--reps N] [--budget FRACTION] [--no-gate] "
                   "[--out FILE] [--golden FILE] [--write-golden FILE]\n");
      return 2;
    }
  }

  const AlwaysBenign model;

  std::vector<RunResult> runs;
  std::unique_ptr<core::Testbed> legs[2];
  double leg_seconds[2] = {};
  const std::vector<double> ratios =
      bench::paired_ratios(reps, 2, kSlices, [&](int rep, int mode, int slice) {
        const bool mitigate_on = mode == 1;
        if (slice == 0) {
          legs[mode] = start_leg(mitigate_on, model);
          leg_seconds[mode] = 0.0;
        }
        const double seconds = step_leg(*legs[mode], slice);
        leg_seconds[mode] += seconds;
        if (slice + 1 == kSlices) {
          runs.push_back(finish_leg(mitigate_on, *legs[mode], leg_seconds[mode]));
          legs[mode].reset();
          const RunResult& r = runs.back();
          std::printf("[rep %d] mitigate=%s wall=%.3fs packets/s=%.0f packets=%llu "
                      "actions=%llu cookies=%llu\n",
                      rep, mitigate_on ? "on " : "off", r.wall_seconds, r.packets_per_sec,
                      static_cast<unsigned long long>(r.packets_total),
                      static_cast<unsigned long long>(r.actions),
                      static_cast<unsigned long long>(r.cookies_sent));
        }
        return seconds;
      })[0];

  // The first run of each mode: its counters are the mode's baseline.
  const auto first_of = [&runs](bool mitigate_on) -> const RunResult& {
    return *std::find_if(runs.begin(), runs.end(), [mitigate_on](const RunResult& r) {
      return r.mitigate_on == mitigate_on;
    });
  };
  const RunResult& off = first_of(false);
  const RunResult& on = first_of(true);

  // Behaviour invariance: with no malicious verdicts the defense must not
  // touch the traffic. Packet counts must match across modes; event counts
  // must match within a mode (the controller's own ticks are events, so the
  // on runs execute a few more). Any divergence, or any enforcement at all,
  // is a hard failure before any throughput talk.
  int exit_code = 0;
  for (const RunResult& r : runs) {
    const RunResult& ref = first_of(r.mitigate_on);
    if (r.events_total != ref.events_total || r.packets_total != off.packets_total) {
      std::fprintf(stderr,
                   "DETERMINISM FAIL: mitigate=%s run saw events=%llu packets=%llu, "
                   "expected events=%llu packets=%llu\n",
                   r.mitigate_on ? "on" : "off",
                   static_cast<unsigned long long>(r.events_total),
                   static_cast<unsigned long long>(r.packets_total),
                   static_cast<unsigned long long>(ref.events_total),
                   static_cast<unsigned long long>(off.packets_total));
      exit_code = 1;
    }
    if (r.acl_dropped + r.ratelimit_dropped != 0) {
      std::fprintf(stderr,
                   "FALSE POSITIVE FAIL: benign-only run dropped %llu packets "
                   "(acl=%llu ratelimit=%llu)\n",
                   static_cast<unsigned long long>(r.acl_dropped + r.ratelimit_dropped),
                   static_cast<unsigned long long>(r.acl_dropped),
                   static_cast<unsigned long long>(r.ratelimit_dropped));
      exit_code = 1;
    }
  }

  const double floor = 1.0 - budget;
  const double ratio = bench::median(ratios);
  std::printf("median over %d reps: on/off=%.4f (floor %.2f, budget %.0f%%)\n", reps, ratio,
              floor, budget * 100.0);
  if (gate && ratio < floor && exit_code == 0) {
    std::fprintf(stderr,
                 "OVERHEAD FAIL: mitigation-on throughput is %.4f of off (median of %d "
                 "paired reps), below %.2f\n",
                 ratio, reps, floor);
    exit_code = 1;
  }

  write_json(out_path, runs, ratios, budget);
  if (!write_golden_path.empty()) write_golden(write_golden_path, off, on);
  // The counters are checked whatever the wall-clock gate said: a noisy
  // host must not leave them unchecked.
  if (!golden_path.empty() && check_golden(golden_path, off, on) != 0) {
    exit_code = 1;
  }
  return exit_code;
}

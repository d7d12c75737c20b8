// bench_obs: observability-overhead microbenchmark for the flight
// recorder and the streaming telemetry pipeline. The same deterministic
// detection scenario runs bare, with the flight recorder enabled (1-in-16
// uid sampling, the default), and with a TelemetryCollector ticking every
// 100 ms of sim time.
//
// The gate is relative, not absolute: each rep runs all three modes back
// to back in the same process, rotating which mode goes first, and yields
// one paired ratio per observer (flight/off and telemetry/off tap
// packets/s). The gate takes the median of those per-rep ratios, so a
// slow phase of the host hits both sides of a pair and one noisy rep
// cannot decide the verdict: "flight/telemetry on must keep >= 95% of
// baseline packets/s" holds regardless of how fast the host is. Each rep
// lasts ~0.1 s, so resolving 5% takes many reps (15 by default). Neither
// observer may change behaviour either: packets_total is
// equal across every mode, events_total is equal within a mode (telemetry
// schedules its own tick events, deterministically), and flight_recorded /
// telemetry ticks/events are pinned by the committed golden.
//
// Outputs BENCH_OBS.json. With --golden FILE the deterministic counters
// are checked against the committed golden (the CI perf-smoke gate);
// --write-golden regenerates it. --timeseries-ndjson FILE streams the
// telemetry reps' series to FILE (the CI artifact).
//
// Usage:
//   bench_obs [--reps N] [--budget FRACTION] [--no-gate] [--out FILE]
//             [--golden FILE] [--write-golden FILE]
//             [--timeseries-ndjson FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "features/extractor.hpp"
#include "ml/kmeans.hpp"
#include "net/simulator.hpp"
#include "obs/flight.hpp"
#include "obs/timeseries.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

namespace {

constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::size_t kDevices = 10;
constexpr std::int64_t kSimSeconds = 4;

enum class Mode { kOff, kFlight, kTelemetry };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kFlight: return "flight";
    case Mode::kTelemetry: return "telemetry";
  }
  return "?";
}

struct RunResult {
  Mode mode = Mode::kOff;
  double wall_seconds = 0.0;
  double packets_per_sec = 0.0;
  // Deterministic across reps and machines.
  std::uint64_t events_total = 0;
  std::uint64_t packets_total = 0;
  std::uint64_t flight_recorded = 0;
  std::uint64_t flight_overwritten = 0;
  std::uint64_t telemetry_ticks = 0;
};

// Same shape as bench_scale's sweep scenario: dense benign mix plus a
// spoofed flood cycle, so the per-packet flight sites (link enqueue/tx/rx,
// tap) dominate the run.
core::Scenario make_obs_scenario() {
  core::Scenario s = core::detection_scenario(kScenarioSeed);
  s.device_count = kDevices;
  s.duration = util::SimTime::seconds(kSimSeconds);
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
  s.churn.events_per_device_per_second = 0.0;
  return s;
}

RunResult run_once(Mode mode, const ml::Classifier& model, const std::string& ndjson_path) {
  auto& flight = obs::FlightRecorder::global();
  // configure() clears the ring and its per-run counters; the ring is
  // sized so a full rep never wraps and flight_recorded stays exact.
  flight.configure(obs::FlightConfig{.capacity = 1u << 16, .sample_every = 16});
  flight.set_enabled(mode == Mode::kFlight);

  core::Testbed tb{make_obs_scenario()};
  tb.deploy();
  tb.deploy_ids(model);

  // Telemetry mode folds the same metrics every 100 ms of sim time that a
  // --timeseries run would: a counter delta, a histogram quantile, and a
  // live probe. Its self-scheduled tick events are part of the workload,
  // so events_total for this mode is pinned separately in the golden.
  std::unique_ptr<obs::TelemetryCollector> collector;
  if (mode == Mode::kTelemetry) {
    obs::TelemetryConfig tcfg;
    tcfg.interval = util::SimTime::millis(100);
    tcfg.until = util::SimTime::seconds(kSimSeconds);
    collector = std::make_unique<obs::TelemetryCollector>(tcfg);
    collector->add_source(&obs::MetricsRegistry::global());
    collector->add_counter("capture.tap.packets", obs::SeriesDomain::kSim);
    collector->add_quantile("ids.window_infer_ns", 0.99, obs::SeriesDomain::kWall);
    collector->add_probe("net.sim.events_per_tick", obs::SeriesDomain::kSim,
                         [&tb, last = std::uint64_t{0}]() mutable {
                           const std::uint64_t now =
                               tb.network().simulator().events_executed();
                           const double delta = static_cast<double>(now - last);
                           last = now;
                           return delta;
                         });
    if (!ndjson_path.empty() && !collector->open_ndjson(ndjson_path)) {
      std::fprintf(stderr, "WARNING: cannot open %s\n", ndjson_path.c_str());
    }
    collector->start(tb.network().simulator());
  }

  const auto t0 = std::chrono::steady_clock::now();
  tb.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.mode = mode;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events_total = tb.network().simulator().events_executed();
  r.packets_total = tb.tap().packets_captured();
  r.flight_recorded = flight.recorded();
  r.flight_overwritten = flight.overwritten();
  if (collector) {
    collector->stop();
    r.telemetry_ticks = collector->ticks();
  }
  r.packets_per_sec = static_cast<double>(r.packets_total) /
                      (r.wall_seconds > 0 ? r.wall_seconds : 1e-9);
  flight.set_enabled(false);
  return r;
}

std::unique_ptr<ml::Classifier> train_model() {
  core::Scenario train = core::training_scenario(/*seed=*/1);
  train.device_count = 6;
  train.duration = util::SimTime::seconds(12);
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

// Per-observer paired ratios (bench::paired_ratios): within rep r, that
// mode's packets/s over the same rep's off packets/s.
struct Ratios {
  std::vector<double> flight;
  std::vector<double> telemetry;
};

void write_json(const std::string& path, const std::vector<RunResult>& runs,
                const Ratios& ratios, double budget) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"bench_obs\",\n  \"config\": {\n";
  out << "    \"devices\": " << kDevices << ", \"sim_seconds\": " << kSimSeconds
      << ", \"scenario_seed\": " << kScenarioSeed << ",\n";
  out << "    \"flight\": {\"capacity\": 65536, \"sample_every\": 16},\n";
  out << "    \"telemetry\": {\"interval_ms\": 100},\n";
  out << "    \"reps\": " << ratios.flight.size() << ",\n";
  out << "    \"overhead_budget\": " << budget << ",\n";
  out << "    \"notes\": \"each rep runs off/flight/telemetry back to back in one "
         "process, rotating which mode goes first; the gates compare the median "
         "of the per-rep on/off packets/s ratios, so only the relative overhead "
         "matters. packets_total/flight_recorded/telemetry counters are "
         "deterministic and golden-pinned; *_per_sec is machine-dependent.\"\n  },\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"wall_seconds\": %.3f, \"packets_per_sec\": %.0f, "
                  "\"events_total\": %llu, \"packets_total\": %llu, "
                  "\"flight_recorded\": %llu, \"telemetry_ticks\": %llu}%s\n",
                  mode_name(r.mode), r.wall_seconds, r.packets_per_sec,
                  static_cast<unsigned long long>(r.events_total),
                  static_cast<unsigned long long>(r.packets_total),
                  static_cast<unsigned long long>(r.flight_recorded),
                  static_cast<unsigned long long>(r.telemetry_ticks),
                  i + 1 < runs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  const double flight = bench::median(ratios.flight);
  const double telemetry = bench::median(ratios.telemetry);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"comparison\": {\"flight_over_off_median\": %.4f, "
                "\"flight_overhead_fraction\": %.4f, "
                "\"telemetry_over_off_median\": %.4f, "
                "\"telemetry_overhead_fraction\": %.4f}\n",
                flight, 1.0 - flight, telemetry, 1.0 - telemetry);
  out << buf << "}\n";

  std::ofstream file{path};
  file << out.str();
  std::printf("wrote %s\n", path.c_str());
}

// Golden format: one "events_total packets_total flight_recorded
// telemetry_events_total telemetry_ticks" line ('#' lines are comments).
// flight_recorded comes from flight reps; the telemetry pair pins the
// telemetry mode's own deterministic workload (its scheduled tick events
// shift events_total, by the same amount on every machine).
int check_golden(const std::string& path, const RunResult& off, const RunResult& flight,
                 const RunResult& telemetry) {
  std::ifstream file{path};
  if (!file) {
    std::fprintf(stderr, "GOLDEN FAIL: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in{line};
    std::uint64_t events = 0, packets = 0, recorded = 0, tel_events = 0, tel_ticks = 0;
    if (!(in >> events >> packets >> recorded >> tel_events >> tel_ticks)) {
      std::fprintf(stderr, "GOLDEN FAIL: malformed line '%s'\n", line.c_str());
      return 1;
    }
    if (off.events_total != events || off.packets_total != packets ||
        flight.flight_recorded != recorded || telemetry.events_total != tel_events ||
        telemetry.telemetry_ticks != tel_ticks) {
      std::fprintf(stderr,
                   "GOLDEN FAIL: expected events=%llu packets=%llu flight_recorded=%llu "
                   "telemetry_events=%llu telemetry_ticks=%llu, "
                   "got events=%llu packets=%llu flight_recorded=%llu "
                   "telemetry_events=%llu telemetry_ticks=%llu\n",
                   static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(packets),
                   static_cast<unsigned long long>(recorded),
                   static_cast<unsigned long long>(tel_events),
                   static_cast<unsigned long long>(tel_ticks),
                   static_cast<unsigned long long>(off.events_total),
                   static_cast<unsigned long long>(off.packets_total),
                   static_cast<unsigned long long>(flight.flight_recorded),
                   static_cast<unsigned long long>(telemetry.events_total),
                   static_cast<unsigned long long>(telemetry.telemetry_ticks));
      return 1;
    }
    std::printf("golden OK: counters match %s\n", path.c_str());
    return 0;
  }
  std::fprintf(stderr, "GOLDEN FAIL: %s contains no counter line\n", path.c_str());
  return 1;
}

void write_golden(const std::string& path, const RunResult& off, const RunResult& flight,
                  const RunResult& telemetry) {
  std::ofstream file{path};
  file << "# bench_obs deterministic counters: events_total packets_total "
          "flight_recorded telemetry_events_total telemetry_ticks\n";
  file << "# Regenerate with: bench_obs --write-golden <this file>\n";
  file << off.events_total << " " << off.packets_total << " " << flight.flight_recorded
       << " " << telemetry.events_total << " " << telemetry.telemetry_ticks << "\n";
  std::printf("wrote golden %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  int reps = 15;
  double budget = 0.05;
  bool gate = true;
  std::string out_path = "BENCH_OBS.json";
  std::string golden_path;
  std::string write_golden_path;
  std::string ndjson_path;
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
    } else if (arg == "--timeseries-ndjson") {
      ndjson_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs [--reps N] [--budget FRACTION] [--no-gate] "
                   "[--out FILE] [--golden FILE] [--write-golden FILE] "
                   "[--timeseries-ndjson FILE]\n");
      return 2;
    }
  }

  const auto model = train_model();

  constexpr Mode kModes[] = {Mode::kOff, Mode::kFlight, Mode::kTelemetry};
  std::vector<RunResult> runs;
  auto paired = bench::paired_ratios(reps, 3, /*slices=*/1, [&](int rep, int m, int) {
    const Mode mode = kModes[m];
    runs.push_back(run_once(mode, *model, mode == Mode::kTelemetry ? ndjson_path : ""));
    const RunResult& r = runs.back();
    std::printf("[rep %d] mode=%-9s wall=%.3fs packets/s=%.0f packets=%llu "
                "flight_recorded=%llu telemetry_ticks=%llu\n",
                rep, mode_name(mode), r.wall_seconds, r.packets_per_sec,
                static_cast<unsigned long long>(r.packets_total),
                static_cast<unsigned long long>(r.flight_recorded),
                static_cast<unsigned long long>(r.telemetry_ticks));
    return r.wall_seconds;
  });
  const Ratios ratios{std::move(paired[0]), std::move(paired[1])};

  // The first run of each mode: its counters are the mode's baseline.
  const auto first_of = [&runs](Mode mode) -> const RunResult& {
    return *std::find_if(runs.begin(), runs.end(),
                         [mode](const RunResult& r) { return r.mode == mode; });
  };
  const RunResult& off = first_of(Mode::kOff);
  const RunResult& flight = first_of(Mode::kFlight);
  const RunResult& telemetry = first_of(Mode::kTelemetry);

  // Behaviour invariance: the observers observe, they must not perturb.
  // packets_total is mode-independent; events_total is equal within a mode
  // (telemetry's scheduled ticks shift it by a deterministic amount). Any
  // divergence is a hard failure before any throughput talk.
  int exit_code = 0;
  for (const RunResult& r : runs) {
    const RunResult& baseline = first_of(r.mode);
    if (r.events_total != baseline.events_total || r.packets_total != off.packets_total) {
      std::fprintf(stderr,
                   "DETERMINISM FAIL: mode=%s run saw events=%llu packets=%llu, "
                   "expected events=%llu packets=%llu\n",
                   mode_name(r.mode),
                   static_cast<unsigned long long>(r.events_total),
                   static_cast<unsigned long long>(r.packets_total),
                   static_cast<unsigned long long>(baseline.events_total),
                   static_cast<unsigned long long>(off.packets_total));
      exit_code = 1;
    }
    if (r.mode == Mode::kFlight && r.flight_overwritten != 0) {
      std::fprintf(stderr, "RING FAIL: %llu events overwritten; grow the bench ring\n",
                   static_cast<unsigned long long>(r.flight_overwritten));
      exit_code = 1;
    }
  }

  const double floor = 1.0 - budget;
  const double flight_ratio = bench::median(ratios.flight);
  const double telemetry_ratio = bench::median(ratios.telemetry);
  std::printf("median over %d reps: flight/off=%.4f telemetry/off=%.4f "
              "(floor %.2f, budget %.0f%%)\n",
              reps, flight_ratio, telemetry_ratio, floor, budget * 100.0);
  if (gate && exit_code == 0) {
    for (const auto& [mode, ratio] :
         {std::pair{Mode::kFlight, flight_ratio}, std::pair{Mode::kTelemetry, telemetry_ratio}}) {
      if (ratio < floor) {
        std::fprintf(stderr,
                     "OVERHEAD FAIL: %s-on throughput is %.4f of off (median of %d paired "
                     "reps), below %.2f\n",
                     mode_name(mode), ratio, reps, floor);
        exit_code = 1;
      }
    }
  }

  write_json(out_path, runs, ratios, budget);
  if (!write_golden_path.empty()) write_golden(write_golden_path, off, flight, telemetry);
  // The counters are checked whatever the wall-clock gate said: a noisy
  // host must not leave them unchecked.
  if (!golden_path.empty() &&
      check_golden(golden_path, off, flight, telemetry) != 0) {
    exit_code = 1;
  }
  return exit_code;
}

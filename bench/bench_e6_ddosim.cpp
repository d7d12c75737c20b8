// E6 — DDoSim substrate behaviours (§III-A / Fig. 1).
//
// DDoSim's evaluation axes: target-server degradation vs. bot count,
// device churn, and attack duration. The testbed must show the same
// monotone shapes: more bots -> less benign service; churn -> weaker
// attack (bots drop off); longer attacks -> longer degradation windows.
#include "bench/bench_common.hpp"

using namespace ddoshield;

namespace {

struct RunStats {
  std::size_t completions = 0;
  std::size_t infected = 0;
  double attack_uplink_mbps = 0.0;  // mean uplink rx rate during the attack
};

// Device count stays fixed (benign load constant); `bots` controls how
// many devices still carry a factory credential and join the botnet.
RunStats run_campaign(std::size_t bots, double churn_rate, double attack_seconds,
                      double pps_per_bot) {
  constexpr std::size_t kDevices = 16;
  core::Scenario s;
  s.seed = 42;
  s.device_count = kDevices;
  s.vulnerable_fraction = static_cast<double>(bots) / static_cast<double>(kDevices);
  s.duration = util::SimTime::seconds(45);
  s.infection_start = util::SimTime::seconds(1);
  s.churn.events_per_device_per_second = churn_rate;
  s.churn.down_time = util::SimTime::seconds(5);
  core::AttackBurst burst;
  burst.start = util::SimTime::seconds(15);
  burst.type = botnet::AttackType::kSynFlood;
  burst.duration = util::SimTime::from_seconds(attack_seconds);
  burst.packets_per_second_per_bot = pps_per_bot;
  burst.spoof_sources = true;
  s.attacks.push_back(burst);

  core::Testbed tb{s};
  tb.deploy();
  const obs::TimeSeries& uplink = *tb.sample_throughput_every(util::SimTime::seconds(1))
                                       .store()
                                       .find("testbed.uplink_rx_bps");
  tb.run();

  RunStats out;
  out.completions = tb.benign_completions();
  out.infected = tb.infected_devices();
  // Sampling starts at t = 0, so tick k covers the second ending at
  // (k + 1) s. Selecting by the integer tick keeps the boundary exact:
  // (k + 1) * 1e9 ns read back as seconds can land just above 15.0.
  double sum = 0.0;
  int n = 0;
  uplink.for_each([&](std::uint64_t tick, double bps) {
    const double end_s = static_cast<double>(tick + 1);
    if (end_s > 15.0 && end_s <= 15.0 + attack_seconds) {
      sum += bps;
      ++n;
    }
  });
  out.attack_uplink_mbps = n ? sum / n / 1e6 : 0.0;
  return out;
}

}  // namespace

int main() {
  bench::banner("E6", "DDoSim substrate: bots / churn / duration sweeps");

  std::printf("\n--- benign service vs. bot count (16 devices, 20 s SYN flood @2000 pps/bot) ---\n");
  std::printf("%6s %12s %14s %18s\n", "bots", "infected", "completions", "uplink Mbit/s");
  std::size_t prev_completions = 0;
  bool monotone = true;
  bool first = true;
  for (std::size_t bots : {0, 2, 4, 8, 16}) {
    const RunStats r = run_campaign(bots, 0.0, 20.0, 2000.0);
    std::printf("%6zu %12zu %14zu %18.2f\n", bots, r.infected, r.completions,
                r.attack_uplink_mbps);
    if (!first && r.completions > prev_completions + prev_completions / 4) monotone = false;
    prev_completions = r.completions;
    first = false;
  }
  std::printf("shape check: benign completions degrade with bot count: %s\n",
              monotone ? "PASS" : "CHECK");

  std::printf("\n--- attack intensity vs. churn (16 bots) ---\n");
  std::printf("%14s %14s %18s\n", "churn (ev/dev/s)", "completions", "uplink Mbit/s");
  double prev_uplink = 0.0;
  bool churn_weakens = true;
  first = true;
  for (double churn : {0.0, 0.02, 0.08}) {
    const RunStats r = run_campaign(16, churn, 20.0, 2000.0);
    std::printf("%14.2f %14zu %18.2f\n", churn, r.completions, r.attack_uplink_mbps);
    if (!first && r.attack_uplink_mbps > prev_uplink * 1.15) churn_weakens = false;
    prev_uplink = r.attack_uplink_mbps;
    first = false;
  }
  std::printf("shape check: churn weakens the delivered attack: %s\n",
              churn_weakens ? "PASS" : "CHECK");

  std::printf("\n--- benign service vs. attack duration (16 bots) ---\n");
  std::printf("%14s %14s\n", "duration (s)", "completions");
  prev_completions = 0;
  bool longer_hurts = true;
  first = true;
  for (double dur : {5.0, 10.0, 20.0, 28.0}) {
    const RunStats r = run_campaign(16, 0.0, dur, 2000.0);
    std::printf("%14.0f %14zu\n", dur, r.completions);
    if (!first && r.completions > prev_completions + prev_completions / 4) longer_hurts = false;
    prev_completions = r.completions;
    first = false;
  }
  std::printf("shape check: longer attacks cost more benign service: %s\n",
              longer_hurts ? "PASS" : "CHECK");
  return 0;
}

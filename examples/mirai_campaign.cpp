// Mirai campaign walkthrough: the full attack lifecycle, narrated.
//
//   1. Devices boot with factory-default telnet credentials and serve
//      benign traffic (HTTP / video / FTP clients against the TServer).
//   2. The attacker scans, brute-forces the dictionary, and plants bots.
//   3. The C2 drives SYN / ACK / UDP flood bursts while devices churn.
//   4. Per-second samples show the TServer's benign goodput collapsing
//      under attack and recovering afterwards (the DDoSim experiment
//      family the testbed inherits).
//
// Build & run:  ./build/examples/mirai_campaign
#include <cstdio>

#include "core/scenario.hpp"
#include "core/testbed.hpp"
#include "util/logging.hpp"

using namespace ddoshield;

int main() {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  core::Scenario s;
  s.seed = 7;
  s.device_count = 8;
  s.duration = util::SimTime::seconds(60);
  s.infection_start = util::SimTime::seconds(2);
  s.churn.events_per_device_per_second = 0.01;  // occasional device dropouts
  s.churn.down_time = util::SimTime::seconds(4);

  // One burst of each vector, heavy enough to visibly hurt the victim.
  const botnet::AttackType vectors[] = {botnet::AttackType::kSynFlood,
                                        botnet::AttackType::kAckFlood,
                                        botnet::AttackType::kUdpFlood};
  for (int i = 0; i < 3; ++i) {
    core::AttackBurst burst;
    burst.start = util::SimTime::seconds(18 + i * 14);
    burst.type = vectors[i];
    burst.duration = util::SimTime::seconds(8);
    burst.packets_per_second_per_bot = 1500.0;
    burst.spoof_sources = burst.type == botnet::AttackType::kSynFlood;
    s.attacks.push_back(burst);
  }

  core::Testbed tb{s};
  tb.deploy();
  const obs::TelemetryCollector& sampler = tb.sample_throughput_every(util::SimTime::seconds(1));
  const obs::TimeSeriesStore& series = sampler.store();

  std::printf("t(s)  bots  benign-goodput(kbit/s)  uplink(Mbit/s)  phase\n");
  for (int t = 1; t <= 60; ++t) {
    tb.run_until(util::SimTime::seconds(t));
    if (sampler.ticks() == 0) continue;
    const util::SimTime at = sampler.last_tick_at();

    const char* phase = "benign";
    if (t < 3) {
      phase = "boot";
    } else if (tb.infected_devices() < s.device_count && t < 18) {
      phase = "infection";
    }
    for (const auto& a : s.attacks) {
      if (at > a.start && at <= a.start + a.duration) {
        phase = botnet::to_string(a.type) == "syn"   ? "SYN FLOOD"
                : botnet::to_string(a.type) == "ack" ? "ACK FLOOD"
                                                     : "UDP FLOOD";
      }
    }
    std::printf("%3d   %4zu  %22.1f  %14.2f  %s\n", t,
                static_cast<std::size_t>(series.find("testbed.connected_bots")->latest()),
                series.find("testbed.benign_goodput_bps")->latest() / 1e3,
                series.find("testbed.uplink_rx_bps")->latest() / 1e6, phase);
  }

  std::printf("\ncampaign summary:\n");
  std::printf("  infected devices     : %zu / %zu\n", tb.infected_devices(), s.device_count);
  std::printf("  benign completions   : %llu\n",
              static_cast<unsigned long long>(tb.benign_completions()));
  std::printf("  benign failures      : %llu\n",
              static_cast<unsigned long long>(tb.benign_failures()));
  std::printf("  victim TCP state     : %zu live connections, %llu RSTs emitted\n",
              tb.topology().tserver->tcp().active_connections(),
              static_cast<unsigned long long>(tb.topology().tserver->tcp().rst_sent()));
  return 0;
}

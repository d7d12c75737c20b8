#include "core/testbed.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "net/tcp.hpp"
#include "util/logging.hpp"

namespace ddoshield::core {

using util::LogLevel;
using util::Rng;
using util::SimTime;

Testbed::Testbed(Scenario scenario) : scenario_{std::move(scenario)} {}

Testbed::~Testbed() {
  // Detach the edge filter before edge_filter_ is destroyed (member order
  // alone is not enough: topo_.router outlives the filter).
  if (edge_filter_ && topo_.router != nullptr) topo_.router->set_ingress_filter(nullptr);
  runtime_.stop_all();
}

void Testbed::deploy() {
  if (deployed_) throw std::logic_error("Testbed::deploy: already deployed");
  deployed_ = true;

  net::StarTopologyConfig topo_cfg = scenario_.topology;
  topo_cfg.device_count = scenario_.device_count;
  topo_ = net::build_star_topology(net_, topo_cfg);

  capture::TapConfig tap_cfg;
  tap_cfg.clock_offset = scenario_.capture_clock_offset;
  tap_ = std::make_unique<capture::PacketTap>(tap_cfg);
  tap_->attach_to(*topo_.tserver);

  build_containers();
  start_benign_apps();
  start_botnet();
  schedule_attacks();
  schedule_churn();
}

void Testbed::build_containers() {
  // Images mirror the paper's four container roles. Entrypoints are
  // installed per-app below; images carry the identity.
  runtime_.register_image({"ddoshield/tserver", "1.0", nullptr});
  runtime_.register_image({"ddoshield/attacker", "1.0", nullptr});
  runtime_.register_image({"ddoshield/dev", "1.0", nullptr});
  runtime_.register_image({"ddoshield/ids", "1.0", nullptr});

  auto& tserver = runtime_.create("tserver", "ddoshield/tserver:1.0");
  tserver.attach_node(*topo_.tserver);
  tserver.start();

  auto& attacker = runtime_.create("attacker", "ddoshield/attacker:1.0");
  attacker.attach_node(*topo_.attacker);
  attacker.start();

  for (std::size_t i = 0; i < topo_.devices.size(); ++i) {
    auto& dev = runtime_.create("dev_" + std::to_string(i), "ddoshield/dev:1.0");
    dev.attach_node(*topo_.devices[i]);
    dev.start();
  }

  auto& ids = runtime_.create("ids", "ddoshield/ids:1.0");
  // The IDS container taps the victim; bridging it to the TServer node
  // mirrors the paper's port-mirrored sensor placement.
  ids.attach_node(*topo_.tserver);
  ids.start();
}

void Testbed::start_benign_apps() {
  Rng root{scenario_.seed};
  auto& tserver = runtime_.get("tserver");

  http_server_ = std::make_unique<apps::HttpServer>(tserver, root.fork("http-server"));
  http_server_->start();
  video_server_ = std::make_unique<apps::VideoServer>(tserver, root.fork("video-server"));
  video_server_->start();
  ftp_server_ = std::make_unique<apps::FtpServer>(tserver, root.fork("ftp-server"));
  ftp_server_->start();
  if (scenario_.benign.telemetry_publish_rate > 0.0) {
    telemetry_broker_ =
        std::make_unique<apps::TelemetryBroker>(tserver, root.fork("telemetry-broker"));
    telemetry_broker_->start();
  }

  const net::Ipv4Address server_addr = topo_.tserver->address();
  for (std::size_t i = 0; i < topo_.devices.size(); ++i) {
    auto& dev = runtime_.get("dev_" + std::to_string(i));
    const std::string tag = "dev-" + std::to_string(i);

    apps::HttpClientConfig http_cfg;
    http_cfg.server = {server_addr, 80};
    http_cfg.session_rate = scenario_.benign.http_session_rate;
    http_cfg.mean_requests_per_session = scenario_.benign.http_mean_requests;
    http_clients_.push_back(
        std::make_unique<apps::HttpClient>(dev, root.fork(tag + "-http"), http_cfg));
    http_clients_.back()->start();

    apps::VideoClientConfig video_cfg;
    video_cfg.server = {server_addr, 1935};
    video_cfg.session_rate = scenario_.benign.video_session_rate;
    video_cfg.mean_watch_seconds = scenario_.benign.video_mean_watch_seconds;
    video_clients_.push_back(
        std::make_unique<apps::VideoClient>(dev, root.fork(tag + "-video"), video_cfg));
    video_clients_.back()->start();

    apps::FtpClientConfig ftp_cfg;
    ftp_cfg.server = {server_addr, 21};
    ftp_cfg.session_rate = scenario_.benign.ftp_session_rate;
    ftp_cfg.mean_files_per_session = scenario_.benign.ftp_mean_files;
    ftp_clients_.push_back(
        std::make_unique<apps::FtpClient>(dev, root.fork(tag + "-ftp"), ftp_cfg));
    ftp_clients_.back()->start();

    if (scenario_.benign.telemetry_publish_rate > 0.0) {
      apps::TelemetrySensorConfig sensor_cfg;
      sensor_cfg.broker = {server_addr, 1883};
      sensor_cfg.publish_rate = scenario_.benign.telemetry_publish_rate;
      telemetry_sensors_.push_back(std::make_unique<apps::TelemetrySensor>(
          dev, root.fork(tag + "-telemetry"), sensor_cfg));
      telemetry_sensors_.back()->start();
    }
  }
}

void Testbed::start_botnet() {
  Rng root{scenario_.seed};
  Rng vuln_rng = root.fork("vulnerability");
  auto& attacker = runtime_.get("attacker");

  // C2 first, so bots always find it.
  c2_ = std::make_unique<botnet::C2Server>(attacker, root.fork("c2"));
  c2_->start();

  // Vulnerable telnet daemons on the devices. The vulnerable count is
  // deterministic (first round(fraction*N) devices) so experiments can
  // sweep botnet size exactly; which credential each device kept is drawn
  // from the common-defaults prefix of the dictionary.
  bots_.resize(topo_.devices.size());
  const auto vulnerable_count = static_cast<std::size_t>(
      std::llround(scenario_.vulnerable_fraction * static_cast<double>(topo_.devices.size())));
  for (std::size_t i = 0; i < topo_.devices.size(); ++i) {
    auto& dev = runtime_.get("dev_" + std::to_string(i));
    botnet::TelnetServiceConfig cfg;
    if (i < vulnerable_count) {
      cfg.credential =
          botnet::credential_at(vuln_rng.uniform_u64(8));  // common defaults only
    }
    const std::size_t index = i;
    telnet_services_.push_back(std::make_unique<botnet::TelnetService>(
        dev, root.fork("telnetd-" + std::to_string(i)), cfg,
        [this, index](const std::string&) { install_bot(index); }));
    telnet_services_.back()->start();
  }

  // Loader and scanner on the attacker.
  botnet::LoaderConfig loader_cfg;
  loader_cfg.c2_address = topo_.attacker->address().to_string();
  loader_ = std::make_unique<botnet::Loader>(attacker, root.fork("loader"), loader_cfg);
  loader_->start();

  botnet::ScannerConfig scan_cfg;
  for (const auto* dev : topo_.devices) scan_cfg.targets.push_back(dev->address());
  scanner_ = std::make_unique<botnet::Scanner>(
      attacker, root.fork("scanner"), scan_cfg,
      [this](const botnet::ScanResult& result) { loader_->infect(result); });

  net_.simulator().schedule_at(scenario_.infection_start, [this] { scanner_->start(); });
}

void Testbed::install_bot(std::size_t device_index) {
  if (bots_.at(device_index)) return;  // already infected
  auto& dev = runtime_.get("dev_" + std::to_string(device_index));
  Rng root{scenario_.seed};
  botnet::BotAgentConfig cfg;
  cfg.c2 = {topo_.attacker->address(), 48101};
  bots_[device_index] = std::make_unique<botnet::BotAgent>(
      dev, root.fork("bot-" + std::to_string(device_index)), cfg);
  bots_[device_index]->start();
  util::log(LogLevel::kInfo, "testbed", "device {} infected, bot started", device_index);
}

void Testbed::schedule_attacks() {
  for (const AttackBurst& burst : scenario_.attacks) {
    net_.simulator().schedule_at(burst.start, [this, burst] {
      botnet::C2Command cmd;
      cmd.type = burst.type;
      cmd.target = topo_.tserver->address();
      cmd.target_port = burst.type == botnet::AttackType::kUdpFlood ? 9000 : 80;
      cmd.duration = burst.duration;
      cmd.packets_per_second = burst.packets_per_second_per_bot;
      cmd.spoof_sources = burst.spoof_sources;
      const std::size_t bots = c2_->launch_attack(cmd);
      util::log(LogLevel::kInfo, "testbed", "attack {} -> {} bots",
                botnet::to_string(burst.type), bots);
    });
  }
}

void Testbed::schedule_churn() {
  if (scenario_.churn.events_per_device_per_second <= 0.0) return;
  churn_rng_ = Rng{scenario_.seed}.fork("churn");
  churn_tick();
}

// Self-rescheduling churn process: after an exponential gap, pick a random
// device, take its access link down for down_time, bring it back.
void Testbed::churn_tick() {
  const double total_rate = scenario_.churn.events_per_device_per_second *
                            static_cast<double>(topo_.devices.size());
  const double gap = churn_rng_.exponential(total_rate);
  net_.simulator().schedule(SimTime::from_seconds(gap), [this] {
    const std::size_t victim = churn_rng_.uniform_u64(topo_.devices.size());
    net::Node* dev = topo_.devices[victim];
    if (dev->interface_count() > 0) {
      net::Link& link = dev->link_at(0);
      link.set_up(false);
      net_.simulator().schedule(scenario_.churn.down_time, [&link] { link.set_up(true); });
    }
    churn_tick();
  });
}

void Testbed::record_dataset() {
  if (recording_) return;
  recording_ = true;
  tap_->add_sink([this](const capture::PacketRecord& r) { dataset_.add(r); });
}

ids::RealTimeIds& Testbed::deploy_ids(const ml::Classifier& model, ids::IdsConfig config) {
  if (!deployed_) throw std::logic_error("Testbed::deploy_ids: call deploy() first");
  if (ids_) throw std::logic_error("Testbed::deploy_ids: IDS already deployed");
  auto& ids_container = runtime_.get("ids");
  ids_ = std::make_unique<ids::RealTimeIds>(ids_container, Rng{scenario_.seed}.fork("ids"),
                                            model, config);
  ids_->attach_tap(*tap_);
  ids_->start();
  return *ids_;
}

mitigate::MitigationController& Testbed::enable_mitigation(mitigate::MitigationConfig config) {
  if (!ids_) throw std::logic_error("Testbed::enable_mitigation: call deploy_ids() first");
  if (mitigation_) throw std::logic_error("Testbed::enable_mitigation: already enabled");

  // Enforcement point: the router's ingress, guarding packets addressed to
  // the TServer — the simulated analogue of pushing filters to the victim's
  // edge so the flood dies before the uplink.
  edge_filter_ = std::make_unique<mitigate::EdgeFilter>(net_.simulator(),
                                                        topo_.tserver->address());
  topo_.router->set_ingress_filter(edge_filter_.get());

  auto& ids_container = runtime_.get("ids");
  mitigation_ = std::make_unique<mitigate::MitigationController>(
      ids_container, Rng{scenario_.seed}.fork("mitigate"), *ids_, *edge_filter_,
      topo_.tserver->tcp(), config);
  mitigation_->set_quarantine_hooks(
      [this](std::uint32_t src_addr) {
        for (std::size_t i = 0; i < topo_.devices.size(); ++i) {
          if (topo_.devices[i]->address().bits() != src_addr) continue;
          auto& dev = runtime_.get("dev_" + std::to_string(i));
          if (dev.state() != container::ContainerState::kRunning) return false;
          crash_device(i);
          return true;
        }
        return false;  // spoofed or non-device source: edge rules only
      },
      [this](std::uint32_t src_addr) {
        for (std::size_t i = 0; i < topo_.devices.size(); ++i) {
          if (topo_.devices[i]->address().bits() == src_addr) {
            restart_device(i);
            return;
          }
        }
      });
  mitigation_->start();
  return *mitigation_;
}

void Testbed::run_until(SimTime t) { net_.simulator().run_until(t); }

void Testbed::run() {
  run_until(scenario_.duration);
  if (ids_) ids_->flush();
  runtime_.stop_all();
}

void Testbed::crash_device(std::size_t device_index) {
  auto& dev = runtime_.get("dev_" + std::to_string(device_index));
  dev.kill();  // stop hooks cancel every resident app's timers
  bots_.at(device_index).reset();
  util::log(LogLevel::kInfo, "testbed", "device {} crashed", device_index);
}

void Testbed::restart_device(std::size_t device_index) {
  auto& dev = runtime_.get("dev_" + std::to_string(device_index));
  if (dev.state() == container::ContainerState::kRunning) return;
  dev.start();
  http_clients_.at(device_index)->start();
  video_clients_.at(device_index)->start();
  ftp_clients_.at(device_index)->start();
  if (device_index < telemetry_sensors_.size() && telemetry_sensors_[device_index]) {
    telemetry_sensors_[device_index]->start();
  }
  telnet_services_.at(device_index)->start();
  util::log(LogLevel::kInfo, "testbed", "device {} restarted", device_index);
}

std::size_t Testbed::infected_devices() const {
  std::size_t n = 0;
  for (const auto& bot : bots_) n += bot != nullptr;
  return n;
}

std::uint64_t Testbed::benign_bytes_delivered() const {
  std::uint64_t bytes = 0;
  for (const auto& c : http_clients_) bytes += c->bytes_downloaded();
  for (const auto& c : video_clients_) bytes += c->bytes_received();
  for (const auto& c : ftp_clients_) bytes += c->bytes_downloaded();
  return bytes;
}

std::uint64_t Testbed::benign_failures() const {
  std::uint64_t n = 0;
  for (const auto& c : http_clients_) n += c->failed_sessions();
  for (const auto& c : ftp_clients_) n += c->failed_downloads();
  return n;
}

std::uint64_t Testbed::benign_completions() const {
  std::uint64_t n = 0;
  for (const auto& c : http_clients_) n += c->responses_completed();
  for (const auto& c : ftp_clients_) n += c->downloads_completed();
  return n;
}

obs::TelemetryCollector& Testbed::sample_throughput_every(SimTime interval) {
  if (!deployed_) throw std::logic_error("Testbed: deploy() before sampling");
  obs::TelemetryConfig cfg;
  cfg.interval = interval;
  cfg.until = scenario_.duration;
  throughput_sampling_ =
      std::make_unique<obs::TelemetryCollector>(cfg, obs::MetricsRegistry::global());
  obs::TelemetryCollector& c = *throughput_sampling_;
  // Bits per second a byte total gained over the interval just ended.
  const auto rate = [seconds = interval.to_seconds()](std::function<std::uint64_t()> bytes) {
    return [bytes = std::move(bytes), seconds, last = std::uint64_t{0}]() mutable {
      const std::uint64_t now = bytes();
      const double bps = static_cast<double>(now - last) * 8.0 / seconds;
      last = now;
      return bps;
    };
  };
  c.add_probe("testbed.benign_goodput_bps", obs::SeriesDomain::kSim,
              rate([this] { return benign_bytes_delivered(); }));
  c.add_probe("testbed.uplink_rx_bps", obs::SeriesDomain::kSim,
              rate([this] { return topo_.uplink->stats_from(*topo_.router).tx_bytes; }));
  c.add_probe("testbed.connected_bots", obs::SeriesDomain::kSim,
              [this] { return static_cast<double>(connected_bots()); });
  c.start(net_.simulator());
  return c;
}

obs::TelemetryCollector& Testbed::enable_metrics_sampling(SimTime period) {
  if (!deployed_) throw std::logic_error("Testbed: deploy() before sampling");
  obs::TelemetryConfig cfg;
  cfg.interval = period;
  cfg.until = scenario_.duration;
  metrics_sampling_ =
      std::make_unique<obs::TelemetryCollector>(cfg, obs::MetricsRegistry::global());
  obs::TelemetryCollector& c = *metrics_sampling_;
  c.add_probe("testbed.sim_pending_events", obs::SeriesDomain::kSim, [this] {
    return static_cast<double>(net_.simulator().pending_events());
  });
  c.add_probe("testbed.uplink_queue_bytes", obs::SeriesDomain::kSim, [this] {
    return topo_.uplink->queue_backlog_bytes(*topo_.router);
  });
  c.add_probe("testbed.tserver_tcp_connections", obs::SeriesDomain::kSim, [this] {
    return static_cast<double>(topo_.tserver->tcp().active_connections());
  });
  c.add_probe("testbed.ids_window_backlog", obs::SeriesDomain::kSim, [this] {
    return ids_ ? static_cast<double>(ids_->window_backlog()) : 0.0;
  });
  c.start(net_.simulator());
  return c;
}

}  // namespace ddoshield::core

// The DDoShield-IoT testbed (Fig. 1).
//
// Wires the whole system from a Scenario: the simulated network (star of
// device/attacker access links into a router uplinked to the TServer), one
// container per role bridged onto its node, the TServer's three benign-
// traffic servers (Apache/Nginx-RTMP/FTP roles), per-device benign clients
// and the vulnerable telnet daemon, the Mirai pipeline (scanner → loader →
// bot agents → C2), scheduled attack bursts, optional device churn, a
// capture tap on the TServer, and (optionally) the real-time IDS container.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/ftp.hpp"
#include "apps/http.hpp"
#include "apps/telemetry.hpp"
#include "apps/video.hpp"
#include "botnet/bot.hpp"
#include "botnet/c2.hpp"
#include "botnet/scanner.hpp"
#include "botnet/telnet_service.hpp"
#include "capture/dataset.hpp"
#include "capture/tap.hpp"
#include "container/runtime.hpp"
#include "core/scenario.hpp"
#include "ids/realtime_ids.hpp"
#include "mitigate/mitigation.hpp"
#include "ml/classifier.hpp"
#include "net/network.hpp"
#include "obs/timeseries.hpp"

namespace ddoshield::core {

class Testbed {
 public:
  explicit Testbed(Scenario scenario);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Builds topology, containers, and apps, and schedules the scenario's
  /// infection, attacks, and churn. Must be called exactly once.
  void deploy();

  /// Starts collecting every tapped packet into dataset().
  void record_dataset();

  /// Deploys the real-time IDS container with a trained model.
  /// Must be called after deploy() and before run_until the traffic of
  /// interest. Returns the IDS for report access.
  ids::RealTimeIds& deploy_ids(const ml::Classifier& model, ids::IdsConfig config = {});

  /// Closes the detect→defend loop: installs an EdgeFilter at the router
  /// guarding the TServer and starts a MitigationController (in the IDS
  /// container) driven by the IDS verdict bus, with quarantine hooks wired
  /// to crash_device/restart_device. Must be called after deploy_ids().
  mitigate::MitigationController& enable_mitigation(mitigate::MitigationConfig config = {});
  /// Present only after enable_mitigation().
  mitigate::MitigationController* mitigation() { return mitigation_.get(); }

  /// Runs the simulation to the given absolute time.
  void run_until(util::SimTime t);
  /// Runs the full scenario duration and stops all containers.
  void run();

  // --- fault injection (testkit) --------------------------------------------
  /// Kills the device's container mid-scenario: every app on it (benign
  /// clients, telnetd, an installed bot) stops, and the bot infection is
  /// lost — a rebooted Mirai victim comes back clean and re-vulnerable.
  void crash_device(std::size_t device_index);
  /// Restarts a crashed/stopped device container and its resident apps
  /// (benign clients and the telnet daemon; bots only return through
  /// reinfection).
  void restart_device(std::size_t device_index);

  // --- access ---------------------------------------------------------------
  net::Network& network() { return net_; }
  container::ContainerRuntime& runtime() { return runtime_; }
  const net::StarTopology& topology() const { return topo_; }
  capture::PacketTap& tap() { return *tap_; }
  capture::Dataset& dataset() { return dataset_; }
  const Scenario& scenario() const { return scenario_; }

  botnet::C2Server& c2() { return *c2_; }
  std::size_t infected_devices() const;
  std::size_t connected_bots() const { return c2_ ? c2_->connected_bots() : 0; }

  apps::HttpServer& http_server() { return *http_server_; }
  apps::VideoServer& video_server() { return *video_server_; }
  apps::FtpServer& ftp_server() { return *ftp_server_; }
  /// Present only when the scenario enables telemetry traffic.
  apps::TelemetryBroker* telemetry_broker() { return telemetry_broker_.get(); }

  /// Total benign application bytes delivered to device clients so far.
  std::uint64_t benign_bytes_delivered() const;
  /// Benign requests/downloads that failed (timeouts, resets) so far.
  std::uint64_t benign_failures() const;
  std::uint64_t benign_completions() const;

  /// Starts a telemetry collector on the simulation clock that records the
  /// victim-side throughput every `interval` of sim time until the scenario
  /// ends (the DDoSim-substrate experiments, E6): "testbed.benign_goodput_bps"
  /// (benign application bytes delivered to clients), "testbed.uplink_rx_bps"
  /// (everything the router sends up the TServer uplink), both over the
  /// interval just ended, and "testbed.connected_bots". Call after deploy(),
  /// before run().
  obs::TelemetryCollector& sample_throughput_every(util::SimTime interval);

  /// Starts a telemetry collector on the simulation clock whose probes
  /// snapshot event-queue depth, uplink queue occupancy, TServer active TCP
  /// connections, and — when an IDS is deployed — the IDS window backlog
  /// into "testbed.*" gauges every `period` of sim time until the scenario
  /// ends. Call after deploy() (and after deploy_ids() to include the IDS
  /// probe).
  obs::TelemetryCollector& enable_metrics_sampling(
      util::SimTime period = util::SimTime::millis(100));

 private:
  void build_containers();
  void start_benign_apps();
  void start_botnet();
  void schedule_attacks();
  void schedule_churn();
  void churn_tick();
  void install_bot(std::size_t device_index);

  Scenario scenario_;
  util::Rng churn_rng_{0};
  net::Network net_;
  net::StarTopology topo_;
  container::ContainerRuntime runtime_;
  bool deployed_ = false;

  std::unique_ptr<capture::PacketTap> tap_;
  capture::Dataset dataset_;
  bool recording_ = false;

  // TServer apps.
  std::unique_ptr<apps::HttpServer> http_server_;
  std::unique_ptr<apps::VideoServer> video_server_;
  std::unique_ptr<apps::FtpServer> ftp_server_;
  std::unique_ptr<apps::TelemetryBroker> telemetry_broker_;

  // Device apps (index-aligned with topology().devices).
  std::vector<std::unique_ptr<apps::HttpClient>> http_clients_;
  std::vector<std::unique_ptr<apps::VideoClient>> video_clients_;
  std::vector<std::unique_ptr<apps::FtpClient>> ftp_clients_;
  std::vector<std::unique_ptr<apps::TelemetrySensor>> telemetry_sensors_;
  std::vector<std::unique_ptr<botnet::TelnetService>> telnet_services_;
  std::vector<std::unique_ptr<botnet::BotAgent>> bots_;

  // Attacker apps.
  std::unique_ptr<botnet::C2Server> c2_;
  std::unique_ptr<botnet::Scanner> scanner_;
  std::unique_ptr<botnet::Loader> loader_;

  // IDS.
  std::unique_ptr<ids::RealTimeIds> ids_;

  // Mitigation (declared after net_/topo_: the destructor detaches the
  // filter from the router before the network goes away).
  std::unique_ptr<mitigate::EdgeFilter> edge_filter_;
  std::unique_ptr<mitigate::MitigationController> mitigation_;

  // Observability.
  std::unique_ptr<obs::TelemetryCollector> metrics_sampling_;
  std::unique_ptr<obs::TelemetryCollector> throughput_sampling_;
};

}  // namespace ddoshield::core

// Tests for the Mirai botnet emulation: credentials, telnet daemon,
// scanner/loader, C2, bot agents, and the three flood vectors.
#include <gtest/gtest.h>

#include "botnet/bot.hpp"
#include "botnet/c2.hpp"
#include "botnet/credentials.hpp"
#include "botnet/floods.hpp"
#include "botnet/scanner.hpp"
#include "botnet/telnet_service.hpp"
#include "container/runtime.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"

namespace ddoshield::botnet {
namespace {

using util::Rng;
using util::SimTime;

// --------------------------------------------------------------------------
// Credentials
// --------------------------------------------------------------------------

TEST(CredentialsTest, DictionaryIsNonTrivialAndStable) {
  EXPECT_GE(credential_dictionary_size(), 32u);
  EXPECT_EQ(credential_at(0), (Credential{"root", "xc3511"}));  // Mirai's #1
  EXPECT_THROW(credential_at(credential_dictionary_size()), std::out_of_range);
}

TEST(CredentialsTest, EntriesAreUnique) {
  const std::size_t n = credential_dictionary_size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_FALSE(credential_at(i) == credential_at(j)) << "duplicate at " << i << "," << j;
    }
  }
}

// --------------------------------------------------------------------------
// Attack types
// --------------------------------------------------------------------------

TEST(AttackTypeTest, NamesRoundTrip) {
  for (auto t : {AttackType::kSynFlood, AttackType::kAckFlood, AttackType::kUdpFlood}) {
    EXPECT_EQ(attack_type_from_string(to_string(t)), t);
  }
  EXPECT_THROW(attack_type_from_string("icmp"), std::invalid_argument);
}

TEST(AttackTypeTest, OriginsAreMalicious) {
  for (auto t : {AttackType::kSynFlood, AttackType::kAckFlood, AttackType::kUdpFlood}) {
    EXPECT_EQ(net::traffic_class_of(origin_of(t)), net::TrafficClass::kMalicious);
  }
}

// --------------------------------------------------------------------------
// C2 command wire format
// --------------------------------------------------------------------------

TEST(C2CommandTest, EncodeDecodeRoundTrip) {
  C2Command cmd;
  cmd.type = AttackType::kAckFlood;
  cmd.target = net::Ipv4Address{10, 0, 1, 1};
  cmd.target_port = 8080;
  cmd.duration = SimTime::millis(12500);
  cmd.packets_per_second = 750.5;
  cmd.spoof_sources = true;

  const C2Command decoded = C2Command::decode(cmd.encode());
  EXPECT_EQ(decoded.type, cmd.type);
  EXPECT_EQ(decoded.target, cmd.target);
  EXPECT_EQ(decoded.target_port, cmd.target_port);
  EXPECT_EQ(decoded.duration, cmd.duration);
  EXPECT_DOUBLE_EQ(decoded.packets_per_second, cmd.packets_per_second);
  EXPECT_TRUE(decoded.spoof_sources);
}

TEST(C2CommandTest, DecodeRejectsGarbage) {
  EXPECT_THROW(C2Command::decode("PING"), std::invalid_argument);
  EXPECT_THROW(C2Command::decode("ATK"), std::invalid_argument);
  EXPECT_THROW(C2Command::decode("ATK xyz 10.0.0.1 80 1000 100 0"), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Fixture: attacker + victim device + target server in a star.
// --------------------------------------------------------------------------

struct BotnetFixture : ::testing::Test {
  net::Network net;
  net::StarTopology topo;
  container::ContainerRuntime runtime;
  container::Container* attacker_box = nullptr;
  container::Container* tserver_box = nullptr;
  std::vector<container::Container*> dev_boxes;

  void SetUp() override {
    topo = net::build_star_topology(net, net::StarTopologyConfig{.device_count = 3});
    runtime.register_image({"test/box", "1", nullptr});
    attacker_box = &runtime.create("attacker", "test/box:1");
    attacker_box->attach_node(*topo.attacker);
    attacker_box->start();
    tserver_box = &runtime.create("tserver", "test/box:1");
    tserver_box->attach_node(*topo.tserver);
    tserver_box->start();
    for (std::size_t i = 0; i < topo.devices.size(); ++i) {
      auto& box = runtime.create("dev" + std::to_string(i), "test/box:1");
      box.attach_node(*topo.devices[i]);
      box.start();
      dev_boxes.push_back(&box);
    }
  }
};

// --------------------------------------------------------------------------
// Telnet service
// --------------------------------------------------------------------------

TEST_F(BotnetFixture, TelnetAcceptsCorrectCredentialOnly) {
  TelnetServiceConfig cfg;
  cfg.credential = Credential{"root", "admin"};
  bool infected = false;
  TelnetService telnet{*dev_boxes[0], Rng{1}, cfg,
                       [&](const std::string&) { infected = true; }};
  telnet.start();

  // Manual session from the attacker: wrong then right credentials.
  auto conn = topo.attacker->tcp().connect(
      net::Endpoint{topo.devices[0]->address(), 23}, net::TrafficOrigin::kMiraiScan);
  std::vector<std::string> replies;
  conn->set_on_data([&](std::uint32_t, const std::string& msg) {
    replies.push_back(msg);
    if (msg == "FAIL") conn->send(48, "LOGIN root admin");
  });
  conn->set_on_connected([&] { conn->send(48, "LOGIN root wrong"); });

  net.simulator().run_until(SimTime::seconds(5));
  ASSERT_GE(replies.size(), 2u);
  EXPECT_EQ(replies[0], "FAIL");
  EXPECT_EQ(replies[1], "OK shell");
  EXPECT_EQ(telnet.login_attempts(), 2u);
  EXPECT_EQ(telnet.successful_logins(), 1u);
  EXPECT_FALSE(infected);  // no INSTALL yet
}

TEST_F(BotnetFixture, TelnetInstallRequiresAuthentication) {
  TelnetServiceConfig cfg;
  cfg.credential = Credential{"root", "admin"};
  std::string c2_seen;
  TelnetService telnet{*dev_boxes[0], Rng{1}, cfg,
                       [&](const std::string& c2) { c2_seen = c2; }};
  telnet.start();

  auto conn = topo.attacker->tcp().connect(
      net::Endpoint{topo.devices[0]->address(), 23}, net::TrafficOrigin::kMiraiScan);
  conn->set_on_connected([&] { conn->send(64, "INSTALL 10.0.0.2"); });
  net.simulator().run_until(SimTime::seconds(3));
  EXPECT_FALSE(telnet.infected());

  auto conn2 = topo.attacker->tcp().connect(
      net::Endpoint{topo.devices[0]->address(), 23}, net::TrafficOrigin::kMiraiScan);
  conn2->set_on_data([&](std::uint32_t, const std::string& msg) {
    if (msg.rfind("OK", 0) == 0) conn2->send(64, "INSTALL 10.0.0.2");
  });
  conn2->set_on_connected([&] { conn2->send(48, "LOGIN root admin"); });
  net.simulator().run_until(SimTime::seconds(6));
  EXPECT_TRUE(telnet.infected());
  EXPECT_EQ(c2_seen, "10.0.0.2");
}

TEST_F(BotnetFixture, TelnetDropsSessionAfterTooManyFailures) {
  TelnetServiceConfig cfg;
  cfg.credential = Credential{"root", "admin"};
  cfg.max_attempts_per_session = 2;
  TelnetService telnet{*dev_boxes[0], Rng{1}, cfg, nullptr};
  telnet.start();

  bool closed = false;
  auto conn = topo.attacker->tcp().connect(
      net::Endpoint{topo.devices[0]->address(), 23}, net::TrafficOrigin::kMiraiScan);
  conn->set_on_closed([&](net::TcpCloseReason r) {
    closed = r == net::TcpCloseReason::kReset;
  });
  conn->set_on_data([&](std::uint32_t, const std::string& msg) {
    if (msg == "FAIL" && conn->state() == net::TcpState::kEstablished) {
      conn->send(48, "LOGIN root nope2");
    }
  });
  conn->set_on_connected([&] { conn->send(48, "LOGIN root nope1"); });
  net.simulator().run_until(SimTime::seconds(5));
  EXPECT_TRUE(closed);
}

TEST_F(BotnetFixture, PatchedDeviceNeverAuthenticates) {
  TelnetServiceConfig cfg;  // credential = nullopt -> patched
  TelnetService telnet{*dev_boxes[0], Rng{1}, cfg, nullptr};
  telnet.start();

  ScannerConfig scfg;
  scfg.targets = {topo.devices[0]->address()};
  scfg.guess_interval = SimTime::millis(10);
  bool found = false;
  Scanner scanner{*attacker_box, Rng{2}, scfg, [&](const ScanResult&) { found = true; }};
  scanner.start();
  net.simulator().run_until(SimTime::seconds(60));
  EXPECT_FALSE(found);
  EXPECT_TRUE(scanner.finished());
  EXPECT_EQ(scanner.hosts_compromised(), 0u);
  EXPECT_GT(telnet.login_attempts(), 4u);  // brute force was attempted
}

// --------------------------------------------------------------------------
// Scanner + Loader end to end
// --------------------------------------------------------------------------

TEST_F(BotnetFixture, ScannerFindsDictionaryCredentials) {
  std::vector<std::unique_ptr<TelnetService>> services;
  for (std::size_t i = 0; i < topo.devices.size(); ++i) {
    TelnetServiceConfig cfg;
    cfg.credential = credential_at(i);  // first entries of the dictionary
    services.push_back(
        std::make_unique<TelnetService>(*dev_boxes[i], Rng{10 + i}, cfg, nullptr));
    services.back()->start();
  }

  ScannerConfig scfg;
  for (auto* dev : topo.devices) scfg.targets.push_back(dev->address());
  scfg.guess_interval = SimTime::millis(20);
  std::vector<ScanResult> found;
  bool done = false;
  Scanner scanner{*attacker_box, Rng{2}, scfg,
                  [&](const ScanResult& r) { found.push_back(r); }, [&] { done = true; }};
  scanner.start();

  net.simulator().run_until(SimTime::seconds(120));
  EXPECT_TRUE(done);
  EXPECT_EQ(found.size(), 3u);
  EXPECT_EQ(scanner.hosts_compromised(), 3u);
  EXPECT_EQ(scanner.hosts_scanned(), 3u);
  for (const auto& r : found) {
    // The reported credential must actually be the device's.
    bool matched = false;
    for (std::size_t i = 0; i < topo.devices.size(); ++i) {
      if (topo.devices[i]->address() == r.address) {
        matched = r.credential == credential_at(i);
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST_F(BotnetFixture, LoaderInstallsAfterScan) {
  TelnetServiceConfig cfg;
  cfg.credential = credential_at(2);
  bool infected = false;
  TelnetService telnet{*dev_boxes[0], Rng{1}, cfg,
                       [&](const std::string&) { infected = true; }};
  telnet.start();

  LoaderConfig lcfg;
  lcfg.c2_address = topo.attacker->address().to_string();
  std::vector<net::Ipv4Address> installed;
  Loader loader{*attacker_box, Rng{3}, lcfg,
                [&](net::Ipv4Address a) { installed.push_back(a); }};
  loader.start();

  ScannerConfig scfg;
  scfg.targets = {topo.devices[0]->address()};
  scfg.guess_interval = SimTime::millis(20);
  Scanner scanner{*attacker_box, Rng{2}, scfg,
                  [&](const ScanResult& r) { loader.infect(r); }};
  scanner.start();

  net.simulator().run_until(SimTime::seconds(60));
  EXPECT_TRUE(infected);
  ASSERT_EQ(installed.size(), 1u);
  EXPECT_EQ(installed[0], topo.devices[0]->address());
  EXPECT_EQ(loader.installs_succeeded(), 1u);
}

// --------------------------------------------------------------------------
// C2 + bots + floods
// --------------------------------------------------------------------------

struct BotArmyFixture : BotnetFixture {
  std::unique_ptr<C2Server> c2;
  std::vector<std::unique_ptr<BotAgent>> bots;

  void start_army() {
    c2 = std::make_unique<C2Server>(*attacker_box, Rng{7});
    c2->start();
    for (std::size_t i = 0; i < dev_boxes.size(); ++i) {
      BotAgentConfig cfg;
      cfg.c2 = net::Endpoint{topo.attacker->address(), 48101};
      bots.push_back(std::make_unique<BotAgent>(*dev_boxes[i], Rng{20 + i}, cfg));
      bots.back()->start();
    }
    net.simulator().run_until(SimTime::seconds(5));
  }
};

TEST_F(BotArmyFixture, BotsRegisterWithC2) {
  start_army();
  EXPECT_EQ(c2->connected_bots(), 3u);
  EXPECT_EQ(c2->total_registrations(), 3u);
  for (const auto& bot : bots) EXPECT_TRUE(bot->connected());
}

TEST_F(BotArmyFixture, AttackCommandReachesAllBots) {
  start_army();
  C2Command cmd;
  cmd.type = AttackType::kSynFlood;
  cmd.target = topo.tserver->address();
  cmd.target_port = 80;
  cmd.duration = SimTime::seconds(3);
  cmd.packets_per_second = 200;
  EXPECT_EQ(c2->launch_attack(cmd), 3u);
  net.simulator().run_until(SimTime::seconds(12));  // 5 s in + 3 s attack + slack
  for (const auto& bot : bots) {
    EXPECT_EQ(bot->attacks_executed(), 1u);
    EXPECT_GT(bot->flood_packets_sent(), 200u);
    EXPECT_FALSE(bot->attacking());  // duration elapsed
  }
}

TEST_F(BotArmyFixture, StopCommandHaltsFlood) {
  start_army();
  C2Command cmd;
  cmd.type = AttackType::kUdpFlood;
  cmd.target = topo.tserver->address();
  cmd.duration = SimTime::seconds(60);
  cmd.packets_per_second = 500;
  c2->launch_attack(cmd);
  net.simulator().run_until(SimTime::seconds(7));
  for (const auto& bot : bots) EXPECT_TRUE(bot->attacking());
  c2->stop_attack();
  net.simulator().run_until(SimTime::seconds(9));
  for (const auto& bot : bots) EXPECT_FALSE(bot->attacking());
}

TEST_F(BotArmyFixture, BotsReconnectAfterChurn) {
  start_army();
  // Take device 0's access link down; its C2 connection dies once the
  // heartbeat retransmissions exhaust (~35 s with the default timers).
  net::Link& link = topo.devices[0]->link_at(0);
  link.set_up(false);
  net.simulator().run_until(SimTime::seconds(60));
  EXPECT_FALSE(bots[0]->connected());
  EXPECT_EQ(c2->connected_bots(), 2u);

  link.set_up(true);
  net.simulator().run_until(SimTime::seconds(90));
  EXPECT_TRUE(bots[0]->connected());
  EXPECT_EQ(c2->connected_bots(), 3u);
}

TEST_F(BotArmyFixture, SynFloodExhaustsListenerBacklog) {
  start_army();
  auto listener = topo.tserver->tcp().listen(80, 64, net::TrafficOrigin::kHttp);
  listener->set_on_accept([](std::shared_ptr<net::TcpConnection>) {});

  C2Command cmd;
  cmd.type = AttackType::kSynFlood;
  cmd.target = topo.tserver->address();
  cmd.target_port = 80;
  cmd.duration = SimTime::seconds(10);
  cmd.packets_per_second = 400;
  cmd.spoof_sources = true;  // never completes handshakes
  c2->launch_attack(cmd);

  net.simulator().run_until(SimTime::seconds(8));
  EXPECT_EQ(listener->half_open(), 64u);       // backlog saturated
  EXPECT_GT(listener->backlog_drops(), 100u);  // excess SYNs rejected
}

TEST_F(BotArmyFixture, AckFloodProvokesRsts) {
  start_army();
  C2Command cmd;
  cmd.type = AttackType::kAckFlood;
  cmd.target = topo.tserver->address();
  cmd.target_port = 80;
  cmd.duration = SimTime::seconds(5);
  cmd.packets_per_second = 300;
  c2->launch_attack(cmd);
  net.simulator().run_until(SimTime::seconds(8));
  EXPECT_GT(topo.tserver->tcp().rst_sent(), 500u);
}

TEST_F(BotArmyFixture, UdpFloodCountsAsNoSocketDrops) {
  start_army();
  C2Command cmd;
  cmd.type = AttackType::kUdpFlood;
  cmd.target = topo.tserver->address();
  cmd.target_port = 9000;
  cmd.duration = SimTime::seconds(5);
  cmd.packets_per_second = 300;
  c2->launch_attack(cmd);
  net.simulator().run_until(SimTime::seconds(8));
  EXPECT_GT(topo.tserver->udp().dropped_no_socket(), 500u);
}

// --------------------------------------------------------------------------
// FloodEngine packet shapes
// --------------------------------------------------------------------------

struct FloodShapeFixture : BotnetFixture {
  std::vector<net::Packet> seen;

  void run_flood(AttackType type, bool spoof = false) {
    topo.tserver->add_tap([this](const net::Packet& p, net::TapDirection d) {
      if (d == net::TapDirection::kReceived) seen.push_back(p);
    });
    FloodEngine engine{*topo.devices[0], Rng{5}};
    FloodConfig cfg;
    cfg.type = type;
    cfg.target = topo.tserver->address();
    cfg.target_port = 80;
    cfg.packets_per_second = 500;
    cfg.duration = SimTime::seconds(2);
    cfg.spoof_sources = spoof;
    bool done = false;
    engine.start(cfg, [&] { done = true; });
    net.simulator().run_until(SimTime::seconds(3));
    EXPECT_TRUE(done);
    EXPECT_GT(seen.size(), 400u);
  }
};

TEST_F(FloodShapeFixture, SynFloodPackets) {
  run_flood(AttackType::kSynFlood);
  std::set<std::uint16_t> src_ports;
  std::set<std::uint32_t> seqs;
  for (const auto& p : seen) {
    ASSERT_EQ(p.proto, net::IpProto::kTcp);
    EXPECT_EQ(p.tcp_flags, net::TcpFlags::kSyn);
    EXPECT_EQ(p.dst_port, 80);
    EXPECT_EQ(p.payload_bytes, 0u);
    EXPECT_EQ(p.origin, net::TrafficOrigin::kMiraiSynFlood);
    src_ports.insert(p.src_port);
    seqs.insert(p.seq);
  }
  // Randomised source ports and sequence numbers.
  EXPECT_GT(src_ports.size(), seen.size() / 4);
  EXPECT_GT(seqs.size(), seen.size() * 9 / 10);
}

TEST_F(FloodShapeFixture, AckFloodPackets) {
  run_flood(AttackType::kAckFlood);
  for (const auto& p : seen) {
    ASSERT_EQ(p.proto, net::IpProto::kTcp);
    EXPECT_TRUE(p.has_flag(net::TcpFlags::kAck));
    EXPECT_FALSE(p.has_flag(net::TcpFlags::kSyn));
    EXPECT_GT(p.payload_bytes, 0u);  // Mirai-style payloaded ACKs
    EXPECT_EQ(p.origin, net::TrafficOrigin::kMiraiAckFlood);
  }
}

TEST_F(FloodShapeFixture, UdpFloodSpraysPorts) {
  run_flood(AttackType::kUdpFlood);
  std::set<std::uint16_t> dst_ports;
  for (const auto& p : seen) {
    ASSERT_EQ(p.proto, net::IpProto::kUdp);
    EXPECT_GE(p.dst_port, 80);
    EXPECT_GT(p.payload_bytes, 0u);
    dst_ports.insert(p.dst_port);
  }
  EXPECT_GT(dst_ports.size(), 50u);
}

TEST_F(FloodShapeFixture, SpoofedFloodRandomisesSources) {
  run_flood(AttackType::kSynFlood, /*spoof=*/true);
  std::set<std::uint32_t> sources;
  for (const auto& p : seen) sources.insert(p.src.bits());
  EXPECT_GT(sources.size(), seen.size() * 9 / 10);
}

TEST_F(FloodShapeFixture, FloodRateRoughlyMatchesConfig) {
  run_flood(AttackType::kUdpFlood);
  // 500 pps for 2 s with Poisson gaps: expect within ±25%.
  EXPECT_GT(seen.size(), 750u);
  EXPECT_LT(seen.size(), 1250u);
}

TEST(FloodEngineTest, RejectsNonPositiveRate) {
  net::Network net;
  net::Node& n = net.add_node("n", net::Ipv4Address{1, 1, 1, 1});
  FloodEngine engine{n, Rng{1}};
  FloodConfig cfg;
  cfg.packets_per_second = 0;
  EXPECT_THROW(engine.start(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ddoshield::botnet

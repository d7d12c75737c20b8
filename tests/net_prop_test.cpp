// Property-style parameterised sweeps over the network substrate: TCP
// bulk transfers across link regimes, flood emission across vectors and
// rates, and conservation invariants on links and nodes.
#include <gtest/gtest.h>

#include "botnet/floods.hpp"
#include "net/network.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"

namespace ddoshield::net {
namespace {

using util::Rng;
using util::SimTime;

// --------------------------------------------------------------------------
// TCP bulk transfers complete exactly across sizes and link regimes.
// --------------------------------------------------------------------------

struct TransferParams {
  std::uint32_t bytes;
  double rate_bps;
  std::int64_t delay_ms;
  std::uint32_t queue_bytes;
};

// Names each case by its parameters (…/1460B_10Mbps_1ms_q65536), so the
// ctest names hold no struct padding and stay the same from build to build.
void PrintTo(const TransferParams& p, std::ostream* os) {
  *os << p.bytes << "B_" << static_cast<long>(p.rate_bps / 1e6) << "Mbps_" << p.delay_ms
      << "ms_q" << p.queue_bytes;
}

class TcpTransferSweep : public ::testing::TestWithParam<TransferParams> {};

TEST_P(TcpTransferSweep, DeliversExactByteCount) {
  const TransferParams p = GetParam();
  Network net;
  Node& c = net.add_node("c", Ipv4Address{10, 0, 0, 1});
  Node& s = net.add_node("s", Ipv4Address{10, 0, 0, 2});
  net.add_link(c, s,
               LinkConfig{.rate_bps = p.rate_bps,
                          .delay = SimTime::millis(p.delay_ms),
                          .queue_bytes = p.queue_bytes});
  c.set_default_route(0);
  s.set_default_route(0);

  auto listener = s.tcp().listen(80);
  std::uint64_t got = 0;
  std::uint64_t messages = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_data([&](std::uint32_t n, const std::string& m) {
      got += n;
      messages += !m.empty();
    });
  });

  auto conn = c.tcp().connect(Endpoint{s.address(), 80}, TrafficOrigin::kFtp);
  conn->set_on_connected([&conn, &p] { conn->send(p.bytes, "payload"); });
  net.simulator().run_until(SimTime::seconds(300));

  EXPECT_EQ(got, p.bytes);
  EXPECT_EQ(messages, 1u);  // the app message arrives exactly once
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLinks, TcpTransferSweep,
    ::testing::Values(
        TransferParams{1, 10e6, 1, 64 * 1024},            // single byte
        TransferParams{1460, 10e6, 1, 64 * 1024},         // exactly one MSS
        TransferParams{1461, 10e6, 1, 64 * 1024},         // one MSS + 1
        TransferParams{100'000, 10e6, 1, 64 * 1024},      // medium
        TransferParams{1'000'000, 100e6, 5, 256 * 1024},  // fast fat link
        TransferParams{500'000, 2e6, 20, 16 * 1024},      // slow lossy link
        TransferParams{250'000, 5e6, 50, 8 * 1024}));     // long RTT tiny queue

// --------------------------------------------------------------------------
// Flood vectors hit the victim at roughly the configured rate.
// --------------------------------------------------------------------------

struct FloodParams {
  botnet::AttackType type;
  double pps;
  bool spoof;
};

// gtest prints each case's parameter into the name ctest gives it (e.g.
// VectorsAndRates/FloodSweep.EmissionRateAndLabels/SynFlood_2000pps_spoofed).
// Without a printer it would print the struct's raw bytes, padding
// included, so the names would change from build to build.
void PrintTo(const FloodParams& p, std::ostream* os) {
  const char* type = p.type == botnet::AttackType::kSynFlood   ? "SynFlood"
                     : p.type == botnet::AttackType::kAckFlood ? "AckFlood"
                                                                : "UdpFlood";
  *os << type << '_' << static_cast<long>(p.pps) << "pps" << (p.spoof ? "_spoofed" : "");
}

class FloodSweep : public ::testing::TestWithParam<FloodParams> {};

TEST_P(FloodSweep, EmissionRateAndLabels) {
  const FloodParams p = GetParam();
  Network net;
  Node& bot = net.add_node("bot", Ipv4Address{10, 0, 0, 1});
  Node& victim = net.add_node("victim", Ipv4Address{10, 0, 0, 2});
  net.add_link(bot, victim, LinkConfig{.rate_bps = 1e9, .queue_bytes = 1 << 22});
  bot.set_default_route(0);
  victim.set_default_route(0);

  std::uint64_t malicious_seen = 0;
  victim.add_tap([&](const Packet& pkt, TapDirection dir) {
    if (dir != TapDirection::kReceived) return;
    EXPECT_EQ(traffic_class_of(pkt.origin), TrafficClass::kMalicious);
    ++malicious_seen;
  });

  botnet::FloodEngine engine{bot, Rng{9}};
  botnet::FloodConfig cfg;
  cfg.type = p.type;
  cfg.target = victim.address();
  cfg.target_port = 80;
  cfg.packets_per_second = p.pps;
  cfg.duration = SimTime::seconds(4);
  cfg.spoof_sources = p.spoof;
  engine.start(cfg);
  net.simulator().run_until(SimTime::seconds(5));

  const double expected = p.pps * 4.0;
  EXPECT_GT(static_cast<double>(malicious_seen), expected * 0.8);
  EXPECT_LT(static_cast<double>(malicious_seen), expected * 1.2);
  EXPECT_EQ(engine.packets_emitted(), malicious_seen);  // nothing dropped here
}

INSTANTIATE_TEST_SUITE_P(
    VectorsAndRates, FloodSweep,
    ::testing::Values(FloodParams{botnet::AttackType::kSynFlood, 200, false},
                      FloodParams{botnet::AttackType::kSynFlood, 2000, true},
                      FloodParams{botnet::AttackType::kAckFlood, 500, false},
                      FloodParams{botnet::AttackType::kAckFlood, 1500, true},
                      FloodParams{botnet::AttackType::kUdpFlood, 300, false},
                      FloodParams{botnet::AttackType::kUdpFlood, 2500, false}));

// --------------------------------------------------------------------------
// Conservation invariants
// --------------------------------------------------------------------------

class LinkConservationSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinkConservationSweep, TransmittedPlusDroppedEqualsOffered) {
  const int offered = GetParam();
  Network net;
  Node& a = net.add_node("a", Ipv4Address{10, 0, 0, 1});
  Node& b = net.add_node("b", Ipv4Address{10, 0, 0, 2});
  Link& link = net.add_link(a, b,
                            LinkConfig{.rate_bps = 1e6,  // slow: forces drops
                                       .delay = SimTime::millis(1),
                                       .queue_bytes = 8 * 1024});
  a.set_default_route(0);
  b.set_default_route(0);
  auto sink = b.udp().open(9);
  std::uint64_t received = 0;
  sink->set_receive_callback([&](const Packet&) { ++received; });

  auto client = a.udp().open();
  for (int i = 0; i < offered; ++i) {
    client->send_to(Endpoint{b.address(), 9}, 500, TrafficOrigin::kHttp);
  }
  net.simulator().run_all();

  const auto& stats = link.stats_from(a);
  EXPECT_EQ(stats.tx_packets + stats.dropped_packets, static_cast<std::uint64_t>(offered));
  EXPECT_EQ(received, stats.tx_packets);  // every transmitted packet arrives
}

INSTANTIATE_TEST_SUITE_P(OfferedLoads, LinkConservationSweep,
                         ::testing::Values(1, 10, 100, 500, 2000));

// --------------------------------------------------------------------------
// Determinism: identical seeds give identical traffic.
// --------------------------------------------------------------------------

TEST(DeterminismTest, FloodReplayIsBitIdentical) {
  auto run_once = [] {
    Network net;
    Node& bot = net.add_node("bot", Ipv4Address{10, 0, 0, 1});
    Node& victim = net.add_node("victim", Ipv4Address{10, 0, 0, 2});
    net.add_link(bot, victim, LinkConfig{});
    bot.set_default_route(0);
    victim.set_default_route(0);
    std::vector<std::uint64_t> trace;
    victim.add_tap([&](const Packet& pkt, TapDirection dir) {
      if (dir == TapDirection::kReceived) {
        trace.push_back((static_cast<std::uint64_t>(pkt.src_port) << 32) ^ pkt.seq);
      }
    });
    botnet::FloodEngine engine{bot, Rng{77}};
    botnet::FloodConfig cfg;
    cfg.type = botnet::AttackType::kSynFlood;
    cfg.target = victim.address();
    cfg.packets_per_second = 500;
    cfg.duration = SimTime::seconds(2);
    engine.start(cfg);
    net.simulator().run_until(SimTime::seconds(3));
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DeterminismTest, TcpExchangeReplayIsIdentical) {
  auto run_once = [] {
    Network net;
    Node& c = net.add_node("c", Ipv4Address{10, 0, 0, 1});
    Node& s = net.add_node("s", Ipv4Address{10, 0, 0, 2});
    net.add_link(c, s, LinkConfig{});
    c.set_default_route(0);
    s.set_default_route(0);
    std::vector<std::uint64_t> trace;
    s.add_tap([&](const Packet& pkt, TapDirection) {
      trace.push_back(pkt.seq ^ (static_cast<std::uint64_t>(pkt.tcp_flags) << 40));
    });
    auto listener = s.tcp().listen(80);
    listener->set_on_accept([](std::shared_ptr<TcpConnection> conn) {
      conn->set_on_data([conn](std::uint32_t n, const std::string&) { conn->send(n); });
    });
    auto conn = c.tcp().connect(Endpoint{s.address(), 80}, TrafficOrigin::kHttp);
    conn->set_on_connected([&conn] { conn->send(50'000, "x"); });
    net.simulator().run_until(SimTime::seconds(10));
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --------------------------------------------------------------------------
// Many concurrent clients against one listener, across backlog sizes.
// --------------------------------------------------------------------------

class BacklogSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BacklogSweep, LegitimateClientsEventuallyAllConnect) {
  const std::size_t backlog = GetParam();
  Network net;
  Node& c = net.add_node("c", Ipv4Address{10, 0, 0, 1});
  Node& s = net.add_node("s", Ipv4Address{10, 0, 0, 2});
  net.add_link(c, s, LinkConfig{.rate_bps = 100e6, .queue_bytes = 1 << 20});
  c.set_default_route(0);
  s.set_default_route(0);

  auto listener = s.tcp().listen(80, backlog);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});

  constexpr int kClients = 30;
  int connected = 0;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < kClients; ++i) {
    auto conn = c.tcp().connect(Endpoint{s.address(), 80}, TrafficOrigin::kHttp);
    conn->set_on_connected([&connected] { ++connected; });
    conns.push_back(std::move(conn));
  }
  net.simulator().run_until(SimTime::seconds(30));
  // Handshakes complete fast, freeing backlog slots; each SYN retry wave
  // admits ~backlog clients and a client retries 4 times, so a backlog of
  // b can admit about 5*b of a simultaneous burst before retries exhaust.
  if (backlog * 5 >= static_cast<std::size_t>(kClients)) {
    EXPECT_EQ(connected, kClients);
    EXPECT_EQ(listener->accepted(), static_cast<std::uint64_t>(kClients));
  } else {
    EXPECT_GE(connected, static_cast<int>(backlog * 4));
    EXPECT_LT(connected, kClients);  // a tiny backlog really does turn users away
    EXPECT_GT(listener->backlog_drops(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backlogs, BacklogSweep, ::testing::Values(2u, 8u, 64u, 256u));

}  // namespace
}  // namespace ddoshield::net

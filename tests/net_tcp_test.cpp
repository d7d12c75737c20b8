// Tests for the TCP state machine: handshake, data transfer, loss recovery,
// teardown, RSTs, and the flood behaviours the testbed relies on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/tcp.hpp"

namespace ddoshield::net {
namespace {

using util::SimTime;

struct TcpFixture : ::testing::Test {
  Network net;
  Node* client = nullptr;
  Node* server = nullptr;
  Link* link = nullptr;

  void SetUp() override {
    client = &net.add_node("client", Ipv4Address{10, 0, 0, 1});
    server = &net.add_node("server", Ipv4Address{10, 0, 0, 2});
    link = &net.add_link(*client, *server,
                         LinkConfig{.rate_bps = 80e6,
                                    .delay = SimTime::millis(1),
                                    .queue_bytes = 512 * 1024});
    client->set_default_route(0);
    server->set_default_route(0);
  }

  Endpoint server_ep(std::uint16_t port) { return Endpoint{server->address(), port}; }
};

TEST_F(TcpFixture, ThreeWayHandshakeEstablishes) {
  auto listener = server->tcp().listen(80);
  std::shared_ptr<TcpConnection> accepted;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) { accepted = std::move(c); });

  bool connected = false;
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_connected([&] { connected = true; });

  net.simulator().run_until(SimTime::seconds(1));
  EXPECT_TRUE(connected);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(conn->state(), TcpState::kEstablished);
  EXPECT_EQ(accepted->state(), TcpState::kEstablished);
  EXPECT_EQ(listener->accepted(), 1u);
  EXPECT_EQ(listener->half_open(), 0u);
}

TEST_F(TcpFixture, HandshakePacketsCarryConnectionOrigin) {
  auto listener = server->tcp().listen(80, 128, TrafficOrigin::kHttp);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});

  std::vector<TrafficOrigin> seen;
  server->add_tap([&](const Packet& p, TapDirection d) {
    if (d == TapDirection::kReceived || d == TapDirection::kSent) seen.push_back(p.origin);
  });

  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  net.simulator().run_until(SimTime::seconds(1));
  ASSERT_GE(seen.size(), 3u);
  for (auto o : seen) EXPECT_EQ(o, TrafficOrigin::kHttp);
}

TEST_F(TcpFixture, DataDeliveredInOrderWithAppData) {
  auto listener = server->tcp().listen(80);
  std::string received_msg;
  std::uint64_t received_bytes = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    auto conn = c;
    conn->set_on_data([&received_msg, &received_bytes](std::uint32_t n, const std::string& m) {
      received_bytes += n;
      if (!m.empty()) received_msg = m;
    });
  });

  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_connected([&] { conn->send(5000, "GET /index.html"); });

  net.simulator().run_until(SimTime::seconds(2));
  EXPECT_EQ(received_bytes, 5000u);
  EXPECT_EQ(received_msg, "GET /index.html");
  EXPECT_EQ(conn->bytes_sent(), 5000u);
}

TEST_F(TcpFixture, LargeTransferCompletesAndIsCountedBothSides) {
  auto listener = server->tcp().listen(80);
  std::shared_ptr<TcpConnection> accepted;
  std::uint64_t got = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    accepted->set_on_data([&](std::uint32_t n, const std::string&) { got += n; });
  });

  constexpr std::uint32_t kSize = 1'000'000;
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kFtp);
  conn->set_on_connected([&] { conn->send(kSize); });

  net.simulator().run_until(SimTime::seconds(10));
  EXPECT_EQ(got, kSize);
  EXPECT_EQ(accepted->bytes_received(), kSize);
}

TEST_F(TcpFixture, BidirectionalEcho) {
  auto listener = server->tcp().listen(7);
  listener->set_on_accept([](std::shared_ptr<TcpConnection> c) {
    auto conn = c;
    conn->set_on_data([conn](std::uint32_t n, const std::string& m) {
      conn->send(n, "echo:" + m);
    });
  });

  std::string reply;
  auto conn = client->tcp().connect(server_ep(7), TrafficOrigin::kHttp);
  conn->set_on_data([&](std::uint32_t, const std::string& m) { reply = m; });
  conn->set_on_connected([&] { conn->send(100, "ping"); });

  net.simulator().run_until(SimTime::seconds(2));
  EXPECT_EQ(reply, "echo:ping");
}

TEST_F(TcpFixture, GracefulCloseBothSidesReachClosed) {
  auto listener = server->tcp().listen(80);
  std::shared_ptr<TcpConnection> accepted;
  TcpCloseReason server_reason{};
  bool server_closed = false;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    accepted->set_on_peer_fin([&, c] { c->close(); });
    accepted->set_on_closed([&](TcpCloseReason r) {
      server_closed = true;
      server_reason = r;
    });
  });

  bool client_closed = false;
  TcpCloseReason client_reason{};
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_connected([&] { conn->close(); });
  conn->set_on_closed([&](TcpCloseReason r) {
    client_closed = true;
    client_reason = r;
  });

  net.simulator().run_until(SimTime::seconds(5));
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(client_reason, TcpCloseReason::kGracefulClose);
  EXPECT_EQ(server_reason, TcpCloseReason::kGracefulClose);
  EXPECT_EQ(server->tcp().active_connections(), 0u);
  EXPECT_EQ(client->tcp().active_connections(), 0u);
}

TEST_F(TcpFixture, DataBeforeCloseIsDeliveredThenFin) {
  auto listener = server->tcp().listen(80);
  std::uint64_t got = 0;
  bool peer_fin = false;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    auto conn = c;
    conn->set_on_data([&](std::uint32_t n, const std::string&) { got += n; });
    conn->set_on_peer_fin([&, conn] {
      peer_fin = true;
      conn->close();
    });
  });

  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_connected([&] {
    conn->send(40000, "payload");
    conn->close();  // FIN must trail all queued data
  });

  net.simulator().run_until(SimTime::seconds(5));
  EXPECT_EQ(got, 40000u);
  EXPECT_TRUE(peer_fin);
}

TEST_F(TcpFixture, ConnectToClosedPortGetsReset) {
  bool closed = false;
  TcpCloseReason reason{};
  auto conn = client->tcp().connect(server_ep(81), TrafficOrigin::kHttp);
  conn->set_on_closed([&](TcpCloseReason r) {
    closed = true;
    reason = r;
  });
  net.simulator().run_until(SimTime::seconds(2));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, TcpCloseReason::kReset);
  EXPECT_EQ(server->tcp().rst_sent(), 1u);
}

TEST_F(TcpFixture, SynRetransmitsWhenServerSilent) {
  // No listener and suppress RSTs by dropping the link server->client.
  auto listener_none = 0;
  (void)listener_none;
  // Use a black-hole: point client's default route at a dead link? Simpler:
  // connect to an address with no node — but routing needs a route. Use the
  // downed-link trick after the SYN leaves: here, drop ALL traffic.
  link->set_up(false);
  bool closed = false;
  TcpCloseReason reason{};
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_closed([&](TcpCloseReason r) {
    closed = true;
    reason = r;
  });
  net.simulator().run_until(SimTime::seconds(60));
  EXPECT_TRUE(closed);
  EXPECT_EQ(reason, TcpCloseReason::kConnectTimeout);
  EXPECT_GE(conn->retransmissions(), 4u);
}

TEST_F(TcpFixture, LossyTransferRecoversViaRetransmission) {
  // Tight queue forces drops under the initial window burst.
  Network lossy_net;
  Node& c = lossy_net.add_node("c", Ipv4Address{10, 0, 0, 1});
  Node& s = lossy_net.add_node("s", Ipv4Address{10, 0, 0, 2});
  lossy_net.add_link(c, s,
                     LinkConfig{.rate_bps = 4e6,
                                .delay = SimTime::millis(5),
                                .queue_bytes = 4000});
  c.set_default_route(0);
  s.set_default_route(0);

  auto listener = s.tcp().listen(80);
  std::uint64_t got = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_data([&](std::uint32_t n, const std::string&) { got += n; });
  });

  constexpr std::uint32_t kSize = 200'000;
  auto conn = c.tcp().connect(Endpoint{s.address(), 80}, TrafficOrigin::kFtp);
  conn->set_on_connected([&] { conn->send(kSize); });

  lossy_net.simulator().run_until(SimTime::seconds(120));
  EXPECT_EQ(got, kSize);
  EXPECT_GT(conn->retransmissions(), 0u);
}

TEST_F(TcpFixture, ListenerBacklogExhaustionDropsNewSyns) {
  auto listener = server->tcp().listen(80, /*backlog=*/4);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});

  // Raw SYNs from spoofed sources that will never complete the handshake.
  for (int i = 0; i < 20; ++i) {
    Packet syn;
    syn.src = Ipv4Address{172, 16, 0, static_cast<std::uint8_t>(i + 1)};
    syn.dst = server->address();
    syn.src_port = static_cast<std::uint16_t>(10000 + i);
    syn.dst_port = 80;
    syn.proto = IpProto::kTcp;
    syn.tcp_flags = TcpFlags::kSyn;
    syn.seq = 1000 + static_cast<std::uint32_t>(i);
    syn.origin = TrafficOrigin::kMiraiSynFlood;
    client->send(std::move(syn));
  }
  net.simulator().run_until(SimTime::millis(100));
  EXPECT_EQ(listener->half_open(), 4u);
  EXPECT_EQ(listener->backlog_drops(), 16u);

  // Embryos expire after SYN-ACK retries; slots free up again.
  net.simulator().run_until(SimTime::seconds(30));
  EXPECT_EQ(listener->half_open(), 0u);
  EXPECT_EQ(listener->accepted(), 0u);
}

TEST_F(TcpFixture, SynCookiesKeepServiceAvailableUnderBacklogExhaustion) {
  server->tcp().set_syn_cookies(true);  // watermark defaults to backlog/2
  auto listener = server->tcp().listen(80, /*backlog=*/4);
  std::shared_ptr<TcpConnection> accepted;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    accepted = std::move(c);
    accepted->set_on_data([&](std::uint32_t, const std::string& msg) {
      if (msg == "ping") accepted->send(16, "pong");
    });
  });

  // The same spoofed flood that exhausts the backlog in the test above.
  for (int i = 0; i < 20; ++i) {
    Packet syn;
    syn.src = Ipv4Address{172, 16, 0, static_cast<std::uint8_t>(i + 1)};
    syn.dst = server->address();
    syn.src_port = static_cast<std::uint16_t>(10000 + i);
    syn.dst_port = 80;
    syn.proto = IpProto::kTcp;
    syn.tcp_flags = TcpFlags::kSyn;
    syn.seq = 1000 + static_cast<std::uint32_t>(i);
    syn.origin = TrafficOrigin::kMiraiSynFlood;
    client->send(std::move(syn));
  }
  net.simulator().run_until(SimTime::millis(100));

  // Above the watermark the server answers statelessly: the embryo store
  // is pinned at the watermark instead of filling, and nothing is dropped.
  EXPECT_EQ(listener->half_open(), 2u);
  EXPECT_EQ(listener->backlog_drops(), 0u);
  EXPECT_EQ(server->tcp().syn_cookies_sent(), 18u);

  // A legitimate client still gets in — its ACK validates the cookie and
  // the connection is created directly ESTABLISHED, data flowing both ways.
  bool connected = false;
  std::string reply;
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_connected([&] {
    connected = true;
    conn->send(16, "ping");
  });
  conn->set_on_data([&](std::uint32_t, const std::string& msg) { reply = msg; });
  net.simulator().run_until(SimTime::millis(300));

  EXPECT_TRUE(connected);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->state(), TcpState::kEstablished);
  EXPECT_EQ(reply, "pong");
  EXPECT_GE(server->tcp().syn_cookies_accepted(), 1u);
}

TEST_F(TcpFixture, SynCookieIsnIsDeterministicPerTuple) {
  server->tcp().set_syn_cookies(true);
  const Ipv4Address c{10, 0, 0, 1};
  const Ipv4Address s{10, 0, 0, 2};
  const std::uint32_t a = server->tcp().syn_cookie_isn(c, s, 5555, 80, 1234);
  EXPECT_EQ(a, server->tcp().syn_cookie_isn(c, s, 5555, 80, 1234));
  // Any field change re-keys the cookie.
  EXPECT_NE(a, server->tcp().syn_cookie_isn(c, s, 5556, 80, 1234));
  EXPECT_NE(a, server->tcp().syn_cookie_isn(c, s, 5555, 80, 1235));
  // And another host derives a different secret from its address.
  EXPECT_NE(a, client->tcp().syn_cookie_isn(c, s, 5555, 80, 1234));
}

TEST_F(TcpFixture, RetransmittedSynGetsIdenticalCookie) {
  server->tcp().set_syn_cookies(true);
  auto listener = server->tcp().listen(80, /*backlog=*/2);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});

  // Saturate to the watermark (backlog/2 = 1) so cookies activate.
  auto forge_syn = [&](std::uint8_t host, std::uint16_t port) {
    Packet syn;
    syn.src = Ipv4Address{172, 16, 0, host};
    syn.dst = server->address();
    syn.src_port = port;
    syn.dst_port = 80;
    syn.proto = IpProto::kTcp;
    syn.tcp_flags = TcpFlags::kSyn;
    syn.seq = 42;
    syn.origin = TrafficOrigin::kMiraiSynFlood;
    client->send(std::move(syn));
  };
  forge_syn(1, 10000);

  std::vector<std::uint32_t> cookie_seqs;
  server->add_tap([&](const Packet& p, TapDirection d) {
    if (d == TapDirection::kSent && p.has_flag(TcpFlags::kSyn) &&
        p.has_flag(TcpFlags::kAck) && p.dst == Ipv4Address{172, 16, 0, 2}) {
      cookie_seqs.push_back(p.seq);
    }
  });
  forge_syn(2, 20000);  // gets a cookie SYN-ACK
  net.simulator().run_until(SimTime::millis(50));
  forge_syn(2, 20000);  // "retransmitted" SYN: identical cookie
  net.simulator().run_until(SimTime::millis(100));

  ASSERT_EQ(cookie_seqs.size(), 2u);
  EXPECT_EQ(cookie_seqs[0], cookie_seqs[1]);
  EXPECT_EQ(cookie_seqs[0], server->tcp().syn_cookie_isn(Ipv4Address{172, 16, 0, 2},
                                                         server->address(), 20000, 80, 42));
}

TEST_F(TcpFixture, AckWithBadCookieIsRejectedWithRst) {
  server->tcp().set_syn_cookies(true);
  auto listener = server->tcp().listen(80, /*backlog=*/4);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});

  // A forged ACK that never saw a cookie: validation fails, stray-ACK RST.
  Packet ack;
  ack.src = Ipv4Address{172, 16, 0, 9};
  ack.dst = server->address();
  ack.src_port = 3333;
  ack.dst_port = 80;
  ack.proto = IpProto::kTcp;
  ack.tcp_flags = TcpFlags::kAck;
  ack.seq = 77;
  ack.ack = 88;
  ack.origin = TrafficOrigin::kMiraiAckFlood;
  client->send(std::move(ack));
  net.simulator().run_until(SimTime::millis(100));

  EXPECT_EQ(server->tcp().syn_cookies_rejected(), 1u);
  EXPECT_EQ(server->tcp().syn_cookies_accepted(), 0u);
  EXPECT_EQ(server->tcp().rst_sent(), 1u);
  EXPECT_EQ(listener->accepted(), 0u);
}

TEST_F(TcpFixture, SynCookiesOffIsByteForByteTheOldBehavior) {
  // The switch is off by default; the config stays inert unless enabled.
  EXPECT_FALSE(server->tcp().syn_cookies_enabled());
  auto listener = server->tcp().listen(80, /*backlog=*/4);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});
  for (int i = 0; i < 20; ++i) {
    Packet syn;
    syn.src = Ipv4Address{172, 16, 0, static_cast<std::uint8_t>(i + 1)};
    syn.dst = server->address();
    syn.src_port = static_cast<std::uint16_t>(10000 + i);
    syn.dst_port = 80;
    syn.proto = IpProto::kTcp;
    syn.tcp_flags = TcpFlags::kSyn;
    syn.seq = 1000 + static_cast<std::uint32_t>(i);
    syn.origin = TrafficOrigin::kMiraiSynFlood;
    client->send(std::move(syn));
  }
  net.simulator().run_until(SimTime::millis(100));
  EXPECT_EQ(listener->half_open(), 4u);
  EXPECT_EQ(listener->backlog_drops(), 16u);
  EXPECT_EQ(server->tcp().syn_cookies_sent(), 0u);
}

TEST_F(TcpFixture, StrayAckDrawsRst) {
  Packet ack;
  ack.src = Ipv4Address{172, 16, 0, 9};
  ack.dst = server->address();
  ack.src_port = 3333;
  ack.dst_port = 80;
  ack.proto = IpProto::kTcp;
  ack.tcp_flags = TcpFlags::kAck;
  ack.seq = 77;
  ack.ack = 88;
  ack.origin = TrafficOrigin::kMiraiAckFlood;
  client->send(std::move(ack));
  net.simulator().run_until(SimTime::millis(100));
  EXPECT_EQ(server->tcp().rst_sent(), 1u);
}

TEST_F(TcpFixture, RstIsNeverAnsweredWithRst) {
  Packet rst;
  rst.src = Ipv4Address{172, 16, 0, 9};
  rst.dst = server->address();
  rst.src_port = 3333;
  rst.dst_port = 80;
  rst.proto = IpProto::kTcp;
  rst.tcp_flags = TcpFlags::kRst;
  client->send(std::move(rst));
  net.simulator().run_until(SimTime::millis(100));
  EXPECT_EQ(server->tcp().rst_sent(), 0u);
}

TEST_F(TcpFixture, RstTearsDownEstablishedConnection) {
  auto listener = server->tcp().listen(80);
  std::shared_ptr<TcpConnection> accepted;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) { accepted = c; });

  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  net.simulator().run_until(SimTime::seconds(1));
  ASSERT_NE(accepted, nullptr);

  bool server_closed = false;
  TcpCloseReason reason{};
  accepted->set_on_closed([&](TcpCloseReason r) {
    server_closed = true;
    reason = r;
  });
  conn->abort();
  net.simulator().run_until(SimTime::seconds(2));
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(reason, TcpCloseReason::kReset);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, SendOnUnconnectedSocketThrows) {
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  EXPECT_THROW(conn->send(100), std::logic_error);  // still SYN_SENT
}

TEST_F(TcpFixture, DoubleListenOnSamePortThrows) {
  auto l1 = server->tcp().listen(80);
  EXPECT_THROW(server->tcp().listen(80), std::invalid_argument);
}

TEST_F(TcpFixture, ClosedListenerIgnoresNewSyns) {
  auto listener = server->tcp().listen(80);
  listener->close();
  bool closed = false;
  TcpCloseReason reason{};
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_closed([&](TcpCloseReason r) {
    closed = true;
    reason = r;
  });
  net.simulator().run_until(SimTime::seconds(60));
  // No listener response: SYN retries exhaust (closed listener drops, the
  // port also no longer RSTs through the dead weak_ptr path).
  EXPECT_TRUE(closed);
}

TEST_F(TcpFixture, ManyParallelConnectionsAllComplete) {
  auto listener = server->tcp().listen(80, 256);
  std::uint64_t total = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    auto conn = c;
    conn->set_on_data([&total](std::uint32_t n, const std::string&) { total += n; });
  });

  constexpr int kConns = 40;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  for (int i = 0; i < kConns; ++i) {
    auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
    conn->set_on_connected([conn] { conn->send(10'000); });
    conns.push_back(std::move(conn));
  }
  net.simulator().run_until(SimTime::seconds(30));
  EXPECT_EQ(total, static_cast<std::uint64_t>(kConns) * 10'000u);
}

TEST_F(TcpFixture, EstablishedAtTimestampIsSet) {
  auto listener = server->tcp().listen(80);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  net.simulator().run_until(SimTime::seconds(1));
  EXPECT_GT(conn->established_at().ns(), 0);
}

// --------------------------------------------------------------------------
// Retransmission-timeout backoff: the exact exponential schedule, edge to
// edge. SYN retries double from syn_rto (500 ms): sends at 0, 0.5, 1.5,
// 3.5, 7.5 s, and the connect gives up one doubled timeout after the
// final retry, at 15.5 s.
// --------------------------------------------------------------------------

TEST_F(TcpFixture, SynRetransmitBackoffFollowsExactSchedule) {
  link->set_up(false);  // black-hole: nothing ever answers
  std::vector<std::int64_t> syn_sends_ms;
  client->add_tap([&](const Packet& pkt, TapDirection dir) {
    if (dir == TapDirection::kSent && pkt.has_flag(TcpFlags::kSyn)) {
      syn_sends_ms.push_back(net.simulator().now().to_millis());
    }
  });

  SimTime closed_at;
  TcpCloseReason reason{};
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);
  conn->set_on_closed([&](TcpCloseReason r) {
    reason = r;
    closed_at = net.simulator().now();
  });
  net.simulator().run_until(SimTime::seconds(60));

  EXPECT_EQ(syn_sends_ms, (std::vector<std::int64_t>{0, 500, 1500, 3500, 7500}));
  EXPECT_EQ(reason, TcpCloseReason::kConnectTimeout);
  EXPECT_EQ(closed_at, SimTime::millis(15'500));
  EXPECT_EQ(conn->retransmissions(), 4u);
}

TEST_F(TcpFixture, DataRetransmitBackoffDoublesUntilRetryLimit) {
  auto listener = server->tcp().listen(80);
  listener->set_on_accept([](std::shared_ptr<TcpConnection>) {});
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);

  // Once established, cut the link at exactly t=100 ms and push one
  // segment into the void. base_rto=250 ms, so with per-retry doubling
  // the data goes out at 100, 350, 850, 1850, 3850, 7850, 15850 ms, and
  // the connection dies one doubled timeout later, at 31850 ms — the
  // worst-case drain the fuzzer's post-run grace period must cover.
  std::vector<std::int64_t> data_sends_ms;
  client->add_tap([&](const Packet& pkt, TapDirection dir) {
    if (dir == TapDirection::kSent && pkt.payload_bytes > 0) {
      data_sends_ms.push_back(net.simulator().now().to_millis());
    }
  });
  SimTime closed_at;
  TcpCloseReason reason{};
  conn->set_on_closed([&](TcpCloseReason r) {
    reason = r;
    closed_at = net.simulator().now();
  });
  net.simulator().schedule_at(SimTime::millis(100), [&] {
    ASSERT_EQ(conn->state(), TcpState::kEstablished);
    link->set_up(false);
    conn->send(1000);
  });

  net.simulator().run_until(SimTime::seconds(120));
  EXPECT_EQ(data_sends_ms,
            (std::vector<std::int64_t>{100, 350, 850, 1850, 3850, 7850, 15850}));
  EXPECT_EQ(reason, TcpCloseReason::kRetransmitLimit);
  EXPECT_EQ(closed_at, SimTime::millis(31'850));
  EXPECT_EQ(conn->retransmissions(), 6u);
}

TEST_F(TcpFixture, AckDuringBackoffResetsRetrySchedule) {
  auto listener = server->tcp().listen(80);
  std::shared_ptr<TcpConnection> server_conn;
  std::uint64_t got = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    server_conn = c;
    c->set_on_data([&](std::uint32_t n, const std::string&) { got += n; });
  });
  auto conn = client->tcp().connect(server_ep(80), TrafficOrigin::kHttp);

  // Lose two retries' worth of time, then heal the link: the segment is
  // retransmitted and acked, and the retry counter must reset so a later
  // loss restarts the backoff ladder from base_rto instead of resuming
  // where the first episode left off.
  net.simulator().schedule_at(SimTime::millis(100), [&] {
    link->set_up(false);
    conn->send(500);
  });
  net.simulator().schedule_at(SimTime::millis(900), [&] { link->set_up(true); });
  net.simulator().run_until(SimTime::seconds(5));
  ASSERT_EQ(got, 500u);
  ASSERT_EQ(conn->state(), TcpState::kEstablished);
  const auto retrans_first_episode = conn->retransmissions();
  ASSERT_GE(retrans_first_episode, 2u);

  std::vector<std::int64_t> second_episode_ms;
  client->add_tap([&](const Packet& pkt, TapDirection dir) {
    if (dir == TapDirection::kSent && pkt.payload_bytes > 0) {
      second_episode_ms.push_back(net.simulator().now().to_millis());
    }
  });
  net.simulator().schedule_at(SimTime::seconds(10), [&] {
    link->set_up(false);
    conn->send(500);
  });
  net.simulator().schedule_at(SimTime::millis(10'400), [&] { link->set_up(true); });
  net.simulator().run_until(SimTime::seconds(20));

  EXPECT_EQ(got, 1000u);
  // Fresh ladder: original at 10000 ms, first retry one base_rto later.
  ASSERT_GE(second_episode_ms.size(), 2u);
  EXPECT_EQ(second_episode_ms[0], 10'000);
  EXPECT_EQ(second_episode_ms[1], 10'250);
}

TEST(TcpStateNames, AllDistinct) {
  EXPECT_EQ(to_string(TcpState::kListen), "LISTEN");
  EXPECT_EQ(to_string(TcpState::kEstablished), "ESTABLISHED");
}

}  // namespace
}  // namespace ddoshield::net

// InvariantChecker unit coverage: a legal TCP exchange sails through, each
// class of synthetic illegality is flagged, exempt traffic stays exempt,
// link conservation is checked against live stats, and the metrics
// self-consistency pass accepts a healthy registry.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/simulator.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "testkit/fuzzer.hpp"
#include "testkit/invariants.hpp"

namespace ddoshield::testkit {
namespace {

using util::SimTime;

struct Rig {
  net::Network net;
  net::Node& a;
  net::Node& b;
  net::Link& link;
  InvariantChecker checker{net.simulator()};

  Rig()
      : a{net.add_node("a", net::Ipv4Address{10, 0, 0, 1})},
        b{net.add_node("b", net::Ipv4Address{10, 0, 0, 2})},
        link{net.add_link(a, b)} {
    a.set_default_route(0);
    b.set_default_route(0);
  }

  // Hand-crafts a stack-tagged TCP segment from a -> b and sends it.
  void send_stack_segment(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack,
                          std::uint32_t payload, bool stack = true) {
    net::Packet pkt;
    pkt.dst = b.address();
    pkt.proto = net::IpProto::kTcp;
    pkt.src_port = 5000;
    pkt.dst_port = 80;
    pkt.tcp_flags = flags;
    pkt.seq = seq;
    pkt.ack = ack;
    pkt.payload_bytes = payload;
    pkt.stack_tcp = stack;
    a.send(pkt);
  }
};

TEST(InvariantsTest, LegalBulkTransferPasses) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.checker.watch_node(rig.b);
  rig.checker.watch_link_direction(rig.link, rig.a);
  rig.checker.watch_link_direction(rig.link, rig.b);

  auto listener = rig.b.tcp().listen(80);
  std::uint64_t got = 0;
  listener->set_on_accept([&](std::shared_ptr<net::TcpConnection> conn) {
    conn->set_on_data([&](std::uint32_t n, const std::string&) { got += n; });
  });
  auto conn = rig.a.tcp().connect(net::Endpoint{rig.b.address(), 80},
                                  net::TrafficOrigin::kHttp);
  conn->set_on_connected([&conn] {
    conn->send(50'000, "bulk");
    conn->close();
  });
  rig.net.simulator().run_all();
  ASSERT_EQ(got, 50'000u);

  const InvariantReport report = rig.checker.finalize();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.packets_checked, 30u);
  EXPECT_GE(report.flows_tracked, 2u);
  EXPECT_EQ(report.directions_checked, 2u);
}

TEST(InvariantsTest, DataBeforeHandshakeFlagged) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kAck, 100, 1, 512);
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_EQ(report.total_violations, 1u);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("data before handshake"), std::string::npos);
}

TEST(InvariantsTest, SequenceGapFlagged) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 100, 0, 0);       // edge = 101
    rig.send_stack_segment(net::TcpFlags::kAck, 200, 1, 100);     // gap: 101 < 200
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_EQ(report.total_violations, 1u);
  EXPECT_NE(report.violations[0].find("sequence gap"), std::string::npos);
}

TEST(InvariantsTest, RetransmissionIsLegal) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 100, 0, 0);
    rig.send_stack_segment(net::TcpFlags::kSyn, 100, 0, 0);           // SYN rexmit
    rig.send_stack_segment(net::TcpFlags::kAck, 101, 1, 1000);        // data
    rig.send_stack_segment(net::TcpFlags::kAck, 101, 1, 1000);        // rexmit
    rig.send_stack_segment(net::TcpFlags::kAck, 1101, 1, 500);        // next chunk
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.packets_checked, 5u);
}

TEST(InvariantsTest, AckRegressionFlagged) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 1, 0, 0);
    rig.send_stack_segment(net::TcpFlags::kAck, 2, 1000, 0);
    rig.send_stack_segment(net::TcpFlags::kAck, 2, 500, 0);  // ack went backward
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_EQ(report.total_violations, 1u);
  EXPECT_NE(report.violations[0].find("ack regressed"), std::string::npos);
}

TEST(InvariantsTest, SegmentAfterRstFlagged) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 10, 0, 0);
    rig.send_stack_segment(net::TcpFlags::kRst, 11, 0, 0);
    // A second RST is fine — closed endpoints RST stray retransmissions.
    rig.send_stack_segment(net::TcpFlags::kRst | net::TcpFlags::kAck, 11, 1, 0);
    rig.send_stack_segment(net::TcpFlags::kAck, 11, 1, 100);  // zombie segment
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_EQ(report.total_violations, 1u);
  EXPECT_NE(report.violations[0].find("after RST"), std::string::npos);
}

TEST(InvariantsTest, DataBeyondFinFlagged) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 0, 0, 0);                       // edge 1
    rig.send_stack_segment(net::TcpFlags::kAck | net::TcpFlags::kFin, 1, 1, 0); // fin edge 2
    rig.send_stack_segment(net::TcpFlags::kAck, 2, 1, 100);                     // beyond FIN
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_EQ(report.total_violations, 1u);
  EXPECT_NE(report.violations[0].find("beyond FIN"), std::string::npos);
}

TEST(InvariantsTest, FloodForgeriesAreExempt) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    // Wildly illegal TCP, but not stack-emitted: raw flood forgery.
    rig.send_stack_segment(net::TcpFlags::kAck, 999, 7, 1400, /*stack=*/false);
    rig.send_stack_segment(net::TcpFlags::kAck, 1, 3, 1400, /*stack=*/false);
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.packets_checked, 0u);
}

TEST(InvariantsTest, NewIssOpensFreshEpoch) {
  Rig rig;
  rig.checker.watch_node(rig.a);
  rig.net.simulator().schedule_at(SimTime::millis(1), [&] {
    rig.send_stack_segment(net::TcpFlags::kSyn, 100, 0, 0);
    rig.send_stack_segment(net::TcpFlags::kAck, 101, 1, 50);
    rig.send_stack_segment(net::TcpFlags::kRst, 151, 0, 0);
    // Ephemeral-port reuse: same 4-tuple, new ISS — must not trip the
    // RST-terminality or gap checks of the dead epoch.
    rig.send_stack_segment(net::TcpFlags::kSyn, 90'000, 0, 0);
    rig.send_stack_segment(net::TcpFlags::kAck, 90'001, 1, 50);
  });
  rig.net.simulator().run_all();

  const auto report = rig.checker.finalize();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.packets_checked, 5u);
}

// One pinned fuzz seed through the full pipeline, checked against the
// event log and counters it produced while a single binary heap still ran
// beside the calendar queue as a second scheduler (both agreed on every
// value below). Any change to event order or content shows up here as a
// digest mismatch; the order itself is checked against a reference heap
// in net_sim_test's CalendarQueueTest suite.
TEST(InvariantsTest, PinnedSeedReplaysRecordedEventLog) {
  constexpr std::uint64_t kPinnedSeed = 0xDD05'51E1Dull;
  const FuzzResult result = Fuzzer{}.run(kPinnedSeed);
  EXPECT_TRUE(result.ok()) << result.invariants.summary();
  EXPECT_EQ(result.log.size(), 5805u);
  EXPECT_EQ(result.log.digest(), 12499803315612679095ull);
  EXPECT_EQ(result.events_executed, 14151u);
  EXPECT_EQ(result.packets_tapped, 5792u);
  EXPECT_EQ(result.end_time, SimTime::nanos(45'629'000'000));
}

TEST(InvariantsTest, MetricsSelfConsistencyAcceptsHealthyRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  auto& h = reg.histogram("testkit.invariants_test.latency");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 1024ull, 123'456'789ull}) h.observe(v);
  reg.gauge("testkit.invariants_test.gauge").set(5.0);
  reg.gauge("testkit.invariants_test.gauge").set(2.0);

  std::vector<std::string> violations;
  EXPECT_EQ(InvariantChecker::check_metrics(reg, &violations), 0u)
      << (violations.empty() ? "" : violations[0]);
}

}  // namespace
}  // namespace ddoshield::testkit

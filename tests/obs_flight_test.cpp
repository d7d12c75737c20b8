// FlightRecorder unit coverage plus the post-mortem contract: a seeded run
// with an injected TCP invariant violation writes a flight dump whose
// events replay byte-identically across two same-seed runs (wall clock
// off), and the dump is written exactly once.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "net/network.hpp"
#include "net/simulator.hpp"
#include "net/tcp.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "testkit/invariants.hpp"
#include "testkit/temp_path.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::obs {
namespace {

using util::SimTime;

// The wiring in net/capture/ids records into the process-global recorder,
// so tests that exercise it must restore a quiescent global state.
struct GlobalFlightGuard {
  ~GlobalFlightGuard() {
    auto& f = FlightRecorder::global();
    f.set_enabled(false);
    f.arm_dump("");
    f.configure(FlightConfig{});
  }
};

TEST(FlightRecorderTest, DisabledRecorderSamplesAndRecordsNothing) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.sampled(0));
  EXPECT_FALSE(rec.sampled(16));
  rec.record(FlightStage::kNetEnqueue, 1, 10);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorderTest, SamplesOneInNUids) {
  FlightRecorder rec;
  rec.set_enabled(true);
  // Default 1-in-16: multiples of 16 pass, everything else does not.
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    EXPECT_EQ(rec.sampled(uid), uid % 16 == 0) << "uid " << uid;
  }
  // sample_every=1 records every packet; non-powers round up.
  rec.configure(FlightConfig{.capacity = 16, .sample_every = 1});
  EXPECT_TRUE(rec.sampled(7));
  rec.configure(FlightConfig{.capacity = 16, .sample_every = 3});
  EXPECT_EQ(rec.config().sample_every, 4u);
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 4, .sample_every = 1});
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(FlightStage::kNetEnqueue, i, static_cast<std::int64_t>(i * 100));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.overwritten(), 2u);

  const auto events = rec.events_in_order();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 2) << "oldest two must have been evicted";
    EXPECT_EQ(events[i].sim_ns, static_cast<std::int64_t>((i + 2) * 100));
  }

  rec.configure(rec.config());  // reconfiguring empties the ring
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(FlightRecorderTest, ConfigureRoundsCapacityToPowerOfTwo) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 5, .sample_every = 1});
  EXPECT_EQ(rec.config().capacity, 8u);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 8; ++i) rec.record(FlightStage::kLinkTx, i, 0);
  EXPECT_EQ(rec.overwritten(), 0u);
  rec.record(FlightStage::kLinkTx, 8, 0);
  EXPECT_EQ(rec.overwritten(), 1u);
}

TEST(FlightRecorderTest, WallClockConfigGatesStamps) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 4, .sample_every = 1, .wall_clock = false});
  EXPECT_EQ(rec.wall_now_ns(), 0);
  rec.configure(FlightConfig{.capacity = 4, .sample_every = 1, .wall_clock = true});
  const std::int64_t a = rec.wall_now_ns();
  const std::int64_t b = rec.wall_now_ns();
  EXPECT_GT(a, 0);
  EXPECT_GE(b, a);
}

TEST(FlightRecorderTest, WriteDumpEmitsSchemaReasonAndEvents) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 8, .sample_every = 1, .wall_clock = false});
  rec.set_enabled(true);
  rec.record(FlightStage::kNetEnqueue, 7, 100, 0, 1400);
  rec.record(FlightStage::kVerdict, 3, 200, 0, 12);

  std::ostringstream os;
  rec.write_dump(os, "unit \"test\"");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"ddoshield-flight-dump-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"unit \\\"test\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"net_enqueue\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\": 1400"), std::string::npos);
  // The embedded post-mortem metrics snapshot is the v2 schema.
  EXPECT_NE(json.find("\"schema\": \"ddoshield-metrics-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);

  // Balanced braces outside strings (escape-aware).
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorderTest, DumpIfArmedWritesExactlyOnce) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 4, .sample_every = 1, .wall_clock = false});
  const testkit::ScopedTempFile tmp{"flight_once", ".json"};
  const std::string& path = tmp.path();

  EXPECT_FALSE(rec.dump_if_armed("unarmed"));  // nothing armed yet
  rec.arm_dump(path);
  EXPECT_FALSE(rec.dumped());
  EXPECT_TRUE(rec.dump_if_armed("first"));
  EXPECT_TRUE(rec.dumped());
  EXPECT_FALSE(rec.dump_if_armed("second")) << "write-once";

  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"reason\": \"first\""), std::string::npos);
}

TEST(FlightRecorderTest, ExportToTraceMergesEventsAsInstants) {
  FlightRecorder rec;
  rec.configure(FlightConfig{.capacity = 8, .sample_every = 1, .wall_clock = false});
  rec.set_enabled(true);
  rec.record(FlightStage::kCaptureTap, 42, 1'000'000);
  rec.record(FlightStage::kWindowClose, 3, 2'000'000);

  TraceRecorder trace;
  trace.set_enabled(true);
  rec.export_to_trace(trace);
  EXPECT_EQ(trace.size(), 2u);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("capture_tap #42"), std::string::npos);
  EXPECT_NE(json.find("window_close #3"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flight\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Post-mortem end-to-end: seeded run, injected violation, deterministic dump
// ---------------------------------------------------------------------------

// One seeded mini-testbed run: a legal bulk transfer plus one stack-tagged
// data-before-handshake segment that trips the TCP invariant checker. The
// checker's first violation writes the armed flight dump mid-run.
std::string run_seeded_violation(const std::string& dump_path) {
  auto& flight = FlightRecorder::global();
  flight.configure(
      FlightConfig{.capacity = 256, .sample_every = 1, .wall_clock = false});
  flight.set_enabled(true);
  flight.arm_dump(dump_path);

  net::Network net;
  net::Node& a = net.add_node("a", net::Ipv4Address{10, 0, 0, 1});
  net::Node& b = net.add_node("b", net::Ipv4Address{10, 0, 0, 2});
  net.add_link(a, b);
  a.set_default_route(0);
  b.set_default_route(0);
  testkit::InvariantChecker checker{net.simulator()};
  checker.watch_node(a);
  checker.watch_node(b);

  auto listener = b.tcp().listen(80);
  listener->set_on_accept([](std::shared_ptr<net::TcpConnection> conn) {
    conn->set_on_data([](std::uint32_t, const std::string&) {});
  });
  auto conn = a.tcp().connect(net::Endpoint{b.address(), 80}, net::TrafficOrigin::kHttp);
  conn->set_on_connected([&conn] {
    conn->send(20'000, "bulk");
    conn->close();
  });

  net.simulator().schedule_at(SimTime::millis(5), [&] {
    net::Packet pkt;  // stack-tagged data with no preceding SYN
    pkt.dst = b.address();
    pkt.proto = net::IpProto::kTcp;
    pkt.src_port = 5999;
    pkt.dst_port = 81;
    pkt.tcp_flags = net::TcpFlags::kAck;
    pkt.seq = 100;
    pkt.ack = 1;
    pkt.payload_bytes = 512;
    pkt.stack_tcp = true;
    a.send(pkt);
  });
  net.simulator().run_all();

  const testkit::InvariantReport report = checker.finalize();
  EXPECT_EQ(report.total_violations, 1u) << report.summary();
  EXPECT_TRUE(flight.dumped()) << "first violation must write the armed dump";

  std::ifstream in{dump_path};
  EXPECT_TRUE(in.is_open()) << "missing dump: " << dump_path;
  std::ostringstream contents;
  contents << in.rdbuf();
  flight.set_enabled(false);
  flight.arm_dump("");
  return contents.str();
}

// The dump's events array is the replayable part: sim-time stamps only
// (wall_clock off zeroes the rest), so two same-seed runs must produce the
// same bytes even though the embedded metrics snapshot accumulates across
// runs in the process-global registry.
std::string events_array_of(const std::string& dump) {
  const std::size_t start = dump.find("\"events\": [");
  EXPECT_NE(start, std::string::npos);
  const std::size_t end = dump.find("]", start);
  EXPECT_NE(end, std::string::npos);
  return dump.substr(start, end - start + 1);
}

TEST(FlightPostMortemTest, InjectedViolationDumpsDeterministicEvents) {
  GlobalFlightGuard guard;
  const testkit::ScopedTempFile tmp_a{"flight_dump_a", ".json"};
  const testkit::ScopedTempFile tmp_b{"flight_dump_b", ".json"};

  const std::string dump_a = run_seeded_violation(tmp_a.path());
  const std::string dump_b = run_seeded_violation(tmp_b.path());
  ASSERT_FALSE(dump_a.empty());
  ASSERT_FALSE(dump_b.empty());

  const std::string events_a = events_array_of(dump_a);
  const std::string events_b = events_array_of(dump_b);
  EXPECT_GT(events_a.size(), std::string{"\"events\": []"}.size())
      << "sampled packet stages must be present in the dump";
  EXPECT_EQ(events_a, events_b) << "same seed, same events, byte for byte";

  // The timeline covers the net stages of the sampled packets and records
  // them with sim-time stamps only.
  for (const char* stage : {"net_enqueue", "link_tx", "link_rx", "tcp_deliver"}) {
    EXPECT_NE(events_a.find(stage), std::string::npos) << stage;
  }
  EXPECT_NE(dump_a.find("\"reason\": \"tcp: data before handshake"), std::string::npos)
      << "dump reason should carry the violation message";
}

}  // namespace
}  // namespace ddoshield::obs

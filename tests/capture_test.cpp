// Tests for the capture layer: packet records, taps, datasets, flows.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "capture/dataset.hpp"
#include "capture/flow.hpp"
#include "capture/packet_record.hpp"
#include "capture/tap.hpp"
#include "csv_reader.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "testkit/temp_path.hpp"

namespace ddoshield::capture {
namespace {

using util::SimTime;

net::Packet make_packet(net::TrafficOrigin origin = net::TrafficOrigin::kHttp) {
  net::Packet p;
  p.src = net::Ipv4Address{10, 0, 0, 5};
  p.dst = net::Ipv4Address{10, 0, 1, 1};
  p.src_port = 51000;
  p.dst_port = 80;
  p.proto = net::IpProto::kTcp;
  p.tcp_flags = net::TcpFlags::kAck | net::TcpFlags::kPsh;
  p.seq = 12345;
  p.payload_bytes = 333;
  p.origin = origin;
  return p;
}

// --------------------------------------------------------------------------
// PacketRecord
// --------------------------------------------------------------------------

TEST(PacketRecordTest, FromPacketCopiesHeadersAndLabels) {
  const auto r = PacketRecord::from_packet(make_packet(net::TrafficOrigin::kMiraiAckFlood),
                                           SimTime::millis(1500));
  EXPECT_EQ(r.timestamp, SimTime::millis(1500));
  EXPECT_EQ(r.src_addr, net::Ipv4Address(10, 0, 0, 5).bits());
  EXPECT_EQ(r.dst_addr, net::Ipv4Address(10, 0, 1, 1).bits());
  EXPECT_EQ(r.src_port, 51000);
  EXPECT_EQ(r.dst_port, 80);
  EXPECT_TRUE(r.is_tcp());
  EXPECT_FALSE(r.is_udp());
  EXPECT_EQ(r.seq, 12345u);
  EXPECT_EQ(r.payload_bytes, 333u);
  EXPECT_EQ(r.wire_bytes, 333u + 40u);
  EXPECT_TRUE(r.is_malicious());
  EXPECT_EQ(r.origin, net::TrafficOrigin::kMiraiAckFlood);
}

TEST(PacketRecordTest, CsvRoundTrip) {
  // Every field, in csv_header() order, as a plain integer.
  const auto r = PacketRecord::from_packet(make_packet(), SimTime::micros(987654321));
  EXPECT_EQ(r.to_csv(), "987654321000,167772165,167772417,51000,80,6,24,12345,333,373,0,0");
}

// The CSV reader is the test oracle of save_csv (tests/csv_reader.hpp); it
// must refuse malformed rows, or a broken export could read back clean.
TEST(PacketRecordTest, CsvRejectsMalformedRows) {
  EXPECT_THROW(test_oracle::parse_csv_row(""), std::invalid_argument);
  EXPECT_THROW(test_oracle::parse_csv_row("1,2,3"), std::invalid_argument);
  EXPECT_THROW(test_oracle::parse_csv_row("a,b,c,d,e,f,g,h,i,j,k,l"), std::invalid_argument);
}

TEST(PacketRecordTest, CsvHeaderHasTwelveColumns) {
  const std::string header = PacketRecord::csv_header();
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 11);
}

// --------------------------------------------------------------------------
// PacketTap
// --------------------------------------------------------------------------

struct TapFixture : ::testing::Test {
  net::Network net;
  net::Node* a = nullptr;
  net::Node* b = nullptr;

  void SetUp() override {
    a = &net.add_node("a", net::Ipv4Address{10, 0, 0, 1});
    b = &net.add_node("b", net::Ipv4Address{10, 0, 0, 2});
    net.add_link(*a, *b, net::LinkConfig{});
    a->set_default_route(0);
    b->set_default_route(0);
  }

  void send_udp(int count) {
    auto server = b->udp().open(9);
    server->set_receive_callback([](const net::Packet&) {});
    auto client = a->udp().open();
    for (int i = 0; i < count; ++i) {
      client->send_to(net::Endpoint{b->address(), 9}, 64, net::TrafficOrigin::kHttp);
    }
    net.simulator().run_all();
  }
};

TEST_F(TapFixture, CapturesBothDirections) {
  PacketTap tap;
  tap.attach_to(*b);
  std::vector<PacketRecord> records;
  tap.add_sink([&](const PacketRecord& r) { records.push_back(r); });
  send_udp(3);
  EXPECT_EQ(records.size(), 3u);  // b only receives here
  EXPECT_EQ(tap.packets_captured(), 3u);
}

TEST_F(TapFixture, DirectionFiltersApply) {
  TapConfig config;
  config.capture_received = false;
  PacketTap tap{config};
  tap.attach_to(*b);
  int captured = 0;
  tap.add_sink([&](const PacketRecord&) { ++captured; });
  send_udp(3);
  EXPECT_EQ(captured, 0);  // b never sends in this exchange
}

TEST_F(TapFixture, DisabledTapDropsTraffic) {
  PacketTap tap;
  tap.attach_to(*b);
  int captured = 0;
  tap.add_sink([&](const PacketRecord&) { ++captured; });
  tap.set_enabled(false);
  send_udp(2);
  EXPECT_EQ(captured, 0);
  tap.set_enabled(true);
  send_udp(2);
  EXPECT_EQ(captured, 2);
}

TEST_F(TapFixture, ClockOffsetShiftsTimestamps) {
  PacketTap tap{TapConfig{.clock_offset = SimTime::seconds(1000)}};
  tap.attach_to(*b);
  std::vector<PacketRecord> records;
  tap.add_sink([&](const PacketRecord& r) { records.push_back(r); });
  send_udp(1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GE(records[0].timestamp, SimTime::seconds(1000));
}

TEST_F(TapFixture, MultipleSinksAllReceive) {
  PacketTap tap;
  tap.attach_to(*b);
  int s1 = 0, s2 = 0;
  tap.add_sink([&](const PacketRecord&) { ++s1; });
  tap.add_sink([&](const PacketRecord&) { ++s2; });
  send_udp(4);
  EXPECT_EQ(s1, 4);
  EXPECT_EQ(s2, 4);
}

// --------------------------------------------------------------------------
// Dataset
// --------------------------------------------------------------------------

PacketRecord record_with(net::TrafficOrigin origin, std::int64_t t_ms = 0) {
  auto r = PacketRecord::from_packet(make_packet(origin), SimTime::millis(t_ms));
  return r;
}

TEST(DatasetTest, CountsAndBalance) {
  Dataset ds;
  for (int i = 0; i < 6; ++i) ds.add(record_with(net::TrafficOrigin::kMiraiSynFlood));
  for (int i = 0; i < 4; ++i) ds.add(record_with(net::TrafficOrigin::kHttp));
  EXPECT_EQ(ds.size(), 10u);
  EXPECT_EQ(ds.malicious_count(), 6u);
  EXPECT_EQ(ds.benign_count(), 4u);
  EXPECT_DOUBLE_EQ(ds.balance_ratio(), 1.5);
}

TEST(DatasetTest, BalanceRatioZeroWithoutBenign) {
  Dataset ds;
  ds.add(record_with(net::TrafficOrigin::kMiraiUdpFlood));
  EXPECT_EQ(ds.balance_ratio(), 0.0);
}

TEST(DatasetTest, OriginHistogram) {
  Dataset ds;
  ds.add(record_with(net::TrafficOrigin::kHttp));
  ds.add(record_with(net::TrafficOrigin::kHttp));
  ds.add(record_with(net::TrafficOrigin::kFtp));
  const auto hist = ds.origin_histogram();
  EXPECT_EQ(hist.at(net::TrafficOrigin::kHttp), 2u);
  EXPECT_EQ(hist.at(net::TrafficOrigin::kFtp), 1u);
  EXPECT_FALSE(hist.contains(net::TrafficOrigin::kVideo));
}

TEST(DatasetTest, SaveLoadCsvRoundTrip) {
  Dataset ds;
  for (int i = 0; i < 50; ++i) {
    ds.add(record_with(i % 3 == 0 ? net::TrafficOrigin::kMiraiAckFlood
                                  : net::TrafficOrigin::kVideo,
                       i * 10));
  }
  const testkit::ScopedTempFile tmp{"ddoshield_dataset_test", ".csv"};
  const std::string& path = tmp.path();
  ds.save_csv(path);
  // The file is the header, then one to_csv() row per record, in order.
  std::ifstream in{path};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, PacketRecord::csv_header());
  for (const PacketRecord& r : ds.records()) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, r.to_csv());
  }
  EXPECT_FALSE(std::getline(in, line));
}

TEST(DatasetTest, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(test_oracle::load_csv("/nonexistent/nope.csv"), std::runtime_error);
  const testkit::ScopedTempFile tmp{"ddoshield_bad_header", ".csv"};
  std::ofstream{tmp.path()} << "wrong,header\n";
  EXPECT_THROW(test_oracle::load_csv(tmp.path()), std::runtime_error);
}

TEST(DatasetTest, CompositionSummaryMentionsCounts) {
  Dataset ds;
  ds.add(record_with(net::TrafficOrigin::kMiraiSynFlood));
  ds.add(record_with(net::TrafficOrigin::kHttp));
  const std::string s = ds.composition_summary();
  EXPECT_NE(s.find("packets=2"), std::string::npos);
  EXPECT_NE(s.find("malicious=1"), std::string::npos);
  EXPECT_NE(s.find("mirai-syn-flood"), std::string::npos);
}

// --------------------------------------------------------------------------
// FlowTable
// --------------------------------------------------------------------------

PacketRecord flow_packet(std::uint16_t src_port, std::int64_t t_ms, std::uint8_t flags,
                         std::uint32_t payload = 100) {
  PacketRecord r;
  r.timestamp = SimTime::millis(t_ms);
  r.src_addr = net::Ipv4Address(10, 0, 0, 5).bits();
  r.dst_addr = net::Ipv4Address(10, 0, 1, 1).bits();
  r.src_port = src_port;
  r.dst_port = 80;
  r.protocol = 6;
  r.tcp_flags = flags;
  r.payload_bytes = payload;
  r.wire_bytes = payload + 40;
  return r;
}

TEST(FlowTableTest, GroupsByFiveTuple) {
  FlowTable table;
  table.add(flow_packet(1000, 0, net::TcpFlags::kSyn, 0));
  table.add(flow_packet(1000, 10, net::TcpFlags::kAck));
  table.add(flow_packet(2000, 5, net::TcpFlags::kSyn, 0));
  EXPECT_EQ(table.flow_count(), 2u);
  FlowKey key{net::Ipv4Address(10, 0, 0, 5).bits(), net::Ipv4Address(10, 0, 1, 1).bits(),
              1000, 80, 6};
  const FlowRecord* flow = table.find(key);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->packets, 2u);
  EXPECT_EQ(flow->syn_count, 1u);
  EXPECT_EQ(flow->duration(), SimTime::millis(10));
}

TEST(FlowTableTest, ShortLivedDetection) {
  FlowTable table;
  // A long flow with many packets.
  for (int i = 0; i < 10; ++i) table.add(flow_packet(1000, i * 100, net::TcpFlags::kAck));
  // Two one-packet flows (scanning signature).
  table.add(flow_packet(2000, 0, net::TcpFlags::kSyn, 0));
  table.add(flow_packet(3000, 1, net::TcpFlags::kSyn, 0));
  EXPECT_EQ(table.short_lived_count(SimTime::millis(50), 2), 2u);
}

TEST(FlowTableTest, MaliciousTaintsWholeFlow) {
  FlowTable table;
  auto benign = flow_packet(1000, 0, net::TcpFlags::kAck);
  table.add(benign);
  auto bad = flow_packet(1000, 5, net::TcpFlags::kAck);
  bad.label = net::TrafficClass::kMalicious;
  table.add(bad);
  ASSERT_EQ(table.flow_count(), 1u);
  const FlowRecord* flow = table.find(FlowKey::of(bad));
  ASSERT_NE(flow, nullptr);
  EXPECT_TRUE(flow->malicious);
}

TEST(FlowTableTest, ClearEmptiesTable) {
  FlowTable table;
  table.add(flow_packet(1000, 0, net::TcpFlags::kSyn, 0));
  table.clear();
  EXPECT_EQ(table.flow_count(), 0u);
}

}  // namespace
}  // namespace ddoshield::capture

// Tests for the real-time IDS unit: windowing, scoring, resource metering.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "capture/tap.hpp"
#include "container/runtime.hpp"
#include "ids/realtime_ids.hpp"
#include "net/network.hpp"

namespace ddoshield::ids {
namespace {

using util::Rng;
using util::SimTime;

/// Deterministic stub model: classifies by destination port (attack port
/// 9999 malicious, everything else benign). Lets the tests control truth
/// and prediction independently.
class StubModel : public ml::Classifier {
 public:
  std::string name() const override { return "stub"; }
  void fit(const ml::DesignMatrix&, const std::vector<int>&) override {}
  bool trained() const override { return true; }
  int predict(std::span<const double> row) const override {
    ++predictions;
    // dst_port is feature index 5 (normalized /65535).
    return row[5] > 0.14 ? 1 : 0;  // 9999/65535 = 0.1526
  }
  void save(util::ByteWriter&) const override {}
  void load(util::ByteReader&) override {}
  std::uint64_t parameter_bytes() const override { return 1024; }
  std::uint64_t inference_scratch_bytes() const override { return 256; }

  mutable std::uint64_t predictions = 0;
};

struct IdsFixture : ::testing::Test {
  net::Network net;
  net::Node* sender = nullptr;
  net::Node* victim = nullptr;
  container::ContainerRuntime runtime;
  container::Container* ids_box = nullptr;
  capture::PacketTap tap;
  StubModel model;

  void SetUp() override {
    sender = &net.add_node("sender", net::Ipv4Address{10, 0, 0, 1});
    victim = &net.add_node("victim", net::Ipv4Address{10, 0, 0, 2});
    net.add_link(*sender, *victim, net::LinkConfig{});
    sender->set_default_route(0);
    victim->set_default_route(0);
    tap.attach_to(*victim);

    runtime.register_image({"test/ids", "1", nullptr});
    ids_box = &runtime.create("ids", "test/ids:1");
    ids_box->attach_node(*victim);
    ids_box->start();
  }

  /// Emits one UDP packet at the current sim time; port selects the class
  /// the stub model predicts, origin selects the ground truth.
  void emit(std::uint16_t dst_port, net::TrafficOrigin origin) {
    net::Packet p;
    p.dst = victim->address();
    p.dst_port = dst_port;
    p.proto = net::IpProto::kUdp;
    p.payload_bytes = 64;
    p.origin = origin;
    sender->send(std::move(p));
  }

  std::unique_ptr<RealTimeIds> make_ids(IdsConfig config = {}) {
    auto ids = std::make_unique<RealTimeIds>(*ids_box, Rng{1}, model, config);
    ids->attach_tap(tap);
    ids->start();
    return ids;
  }
};

TEST_F(IdsFixture, RequiresTrainedModel) {
  class Untrained : public StubModel {
   public:
    bool trained() const override { return false; }
  } untrained;
  EXPECT_THROW((RealTimeIds{*ids_box, Rng{1}, untrained}), std::invalid_argument);
}

TEST_F(IdsFixture, RejectsBadWindow) {
  IdsConfig config;
  config.window = SimTime::seconds(0);
  EXPECT_THROW((RealTimeIds{*ids_box, Rng{1}, model, config}), std::invalid_argument);
}

TEST_F(IdsFixture, WindowsCloseOnBoundaries) {
  auto ids = make_ids();
  // Two packets in second 0, three in second 2.
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(800), [&] { emit(80, net::TrafficOrigin::kHttp); });
  for (int i = 0; i < 3; ++i) {
    net.simulator().schedule(SimTime::millis(2100 + i * 100),
                             [&] { emit(80, net::TrafficOrigin::kHttp); });
  }
  net.simulator().run_until(SimTime::seconds(4));

  const auto& reports = ids->reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].window_index, 0u);
  EXPECT_EQ(reports[0].packets, 2u);
  EXPECT_EQ(reports[1].window_index, 2u);
  EXPECT_EQ(reports[1].packets, 3u);
}

TEST_F(IdsFixture, AccuracyPerWindowIsCorrect) {
  auto ids = make_ids();
  // Window 0: 3 benign predicted-benign (correct), 1 benign predicted-
  // malicious (port 9999 but benign origin -> FP).
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(200), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(300), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(400),
                           [&] { emit(9999, net::TrafficOrigin::kHttp); });
  net.simulator().run_until(SimTime::seconds(2));

  ASSERT_EQ(ids->reports().size(), 1u);
  const auto& r = ids->reports()[0];
  EXPECT_EQ(r.packets, 4u);
  EXPECT_DOUBLE_EQ(r.accuracy, 0.75);
  EXPECT_EQ(r.truth_malicious, 0u);
  EXPECT_EQ(r.predicted_malicious, 1u);
  EXPECT_TRUE(r.single_class);  // all truth benign
}

TEST_F(IdsFixture, SingleClassFlagClearedOnMixedWindows) {
  auto ids = make_ids();
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(200),
                           [&] { emit(9999, net::TrafficOrigin::kMiraiUdpFlood); });
  net.simulator().run_until(SimTime::seconds(2));
  ASSERT_EQ(ids->reports().size(), 1u);
  EXPECT_FALSE(ids->reports()[0].single_class);
  EXPECT_DOUBLE_EQ(ids->reports()[0].accuracy, 1.0);
}

TEST_F(IdsFixture, SummaryAveragesWindows) {
  auto ids = make_ids();
  // Window 0: accuracy 1.0 (benign correct).
  net.simulator().schedule(SimTime::millis(500), [&] { emit(80, net::TrafficOrigin::kHttp); });
  // Window 1: accuracy 0.0 (malicious truth on a benign-predicted port).
  net.simulator().schedule(SimTime::millis(1500),
                           [&] { emit(80, net::TrafficOrigin::kMiraiSynFlood); });
  net.simulator().run_until(SimTime::seconds(3));

  const IdsSummary s = ids->summarize();
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.packets, 2u);
  EXPECT_DOUBLE_EQ(s.average_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(s.min_accuracy, 0.0);
  EXPECT_DOUBLE_EQ(s.overall_accuracy, 0.5);
  EXPECT_EQ(s.confusion.fn(), 1u);
  EXPECT_EQ(s.confusion.tn(), 1u);
}

TEST_F(IdsFixture, EmptySummaryIsZero) {
  auto ids = make_ids();
  net.simulator().run_until(SimTime::seconds(2));
  const IdsSummary s = ids->summarize();
  EXPECT_EQ(s.windows, 0u);
  EXPECT_EQ(s.packets, 0u);
  EXPECT_EQ(s.average_accuracy, 0.0);
}

TEST_F(IdsFixture, FlushClosesPartialWindow) {
  auto ids = make_ids();
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().run_until(SimTime::millis(500));  // window 0 still open
  EXPECT_EQ(ids->reports().size(), 0u);
  ids->flush();
  EXPECT_EQ(ids->reports().size(), 1u);
}

TEST_F(IdsFixture, StoppingIdsStopsScoring) {
  auto ids = make_ids();
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().run_until(SimTime::seconds(2));
  ids->stop();
  const auto count = ids->reports().size();
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().run_until(SimTime::seconds(5));
  EXPECT_EQ(ids->reports().size(), count);
}

TEST_F(IdsFixture, CpuTimersArePopulated) {
  auto ids = make_ids();
  for (int i = 0; i < 50; ++i) {
    net.simulator().schedule(SimTime::millis(10 + i), [&] { emit(80, net::TrafficOrigin::kHttp); });
  }
  net.simulator().run_until(SimTime::seconds(2));
  ASSERT_EQ(ids->reports().size(), 1u);
  // Real measured nanoseconds: strictly positive for a 50-packet window.
  EXPECT_GT(ids->reports()[0].cpu_feature_ns, 0u);
  EXPECT_GT(ids->reports()[0].cpu_inference_ns, 0u);
  EXPECT_EQ(model.predictions, 50u);
}

TEST_F(IdsFixture, MemoryAccountsModelScratchAndBuffers) {
  IdsConfig cfg;
  cfg.meter.inference_chunk = 32;
  auto ids = make_ids(cfg);
  for (int i = 0; i < 20; ++i) {
    net.simulator().schedule(SimTime::millis(10 + i), [&] { emit(80, net::TrafficOrigin::kHttp); });
  }
  net.simulator().run_until(SimTime::seconds(2));
  const IdsSummary s = ids->summarize();
  // At least the model scratch (256 B x 32) plus the row chunk.
  EXPECT_GT(s.memory_kb, (256.0 * 32) / 1024.0);
}

TEST_F(IdsFixture, CustomWindowDuration) {
  IdsConfig cfg;
  cfg.window = SimTime::millis(500);
  auto ids = make_ids(cfg);
  net.simulator().schedule(SimTime::millis(100), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().schedule(SimTime::millis(700), [&] { emit(80, net::TrafficOrigin::kHttp); });
  net.simulator().run_until(SimTime::seconds(2));
  EXPECT_EQ(ids->reports().size(), 2u);
  EXPECT_EQ(ids->reports()[0].window_start, SimTime::seconds(0));
  EXPECT_EQ(ids->reports()[1].window_start, SimTime::millis(500));
}

// Parameterised sweep: the per-window accuracy equals the fraction the
// stub gets right for any benign/malicious interleaving.
class IdsAccuracySweep : public IdsFixture,
                         public ::testing::WithParamInterface<int> {};

TEST_P(IdsAccuracySweep, WindowAccuracyMatchesStub) {
  const int malicious = GetParam();
  const int total = 10;
  auto ids = make_ids();
  for (int i = 0; i < total; ++i) {
    const bool is_attack = i < malicious;
    net.simulator().schedule(SimTime::millis(50 + i * 20), [this, is_attack] {
      // Attack truth on the malicious-predicted port: always correct;
      // benign truth on the benign port: always correct. Accuracy 1.0,
      // but the malicious counters must match exactly.
      emit(is_attack ? 9999 : 80,
           is_attack ? net::TrafficOrigin::kMiraiUdpFlood : net::TrafficOrigin::kHttp);
    });
  }
  net.simulator().run_until(SimTime::seconds(2));
  ASSERT_EQ(ids->reports().size(), 1u);
  const auto& r = ids->reports()[0];
  EXPECT_EQ(r.truth_malicious, static_cast<std::uint64_t>(malicious));
  EXPECT_EQ(r.predicted_malicious, static_cast<std::uint64_t>(malicious));
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
  EXPECT_EQ(r.single_class, malicious == 0 || malicious == total);
}

INSTANTIATE_TEST_SUITE_P(MaliciousFractions, IdsAccuracySweep,
                         ::testing::Values(0, 1, 3, 5, 9, 10));

// --------------------------------------------------------------------------
// Per-source verdict group-by and the per-tap slice merge
// --------------------------------------------------------------------------

// The std::map group-by that group_verdicts_by_source replaced, kept as
// its oracle.
std::vector<SourceVerdict> group_by_map(std::span<const std::uint32_t> row_sources,
                                        std::span<const int> verdicts) {
  std::map<std::uint32_t, SourceVerdict> by_source;
  const std::size_t rows = std::min(row_sources.size(), verdicts.size());
  for (std::size_t i = 0; i < rows; ++i) {
    SourceVerdict& sv = by_source[row_sources[i]];
    sv.src_addr = row_sources[i];
    ++sv.packets;
    sv.flagged += verdicts[i] != 0 ? 1u : 0u;
  }
  std::vector<SourceVerdict> sources;
  for (const auto& [addr, sv] : by_source) sources.push_back(sv);
  return sources;
}

void expect_same_sources(const std::vector<SourceVerdict>& got,
                         const std::vector<SourceVerdict>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src_addr, want[i].src_addr) << i;
    EXPECT_EQ(got[i].packets, want[i].packets) << i;
    EXPECT_EQ(got[i].flagged, want[i].flagged) << i;
  }
}

// Random rows: unsorted, sorted, or with every row repeated; sources drawn
// from a few addresses, a few hundred, or the whole 32-bit space.
struct RandomRows {
  std::vector<std::uint32_t> sources;
  std::vector<int> verdicts;
};

RandomRows random_rows(Rng& rng, std::size_t rows) {
  static constexpr std::uint64_t kSpreads[] = {3, 400, 1ull << 32};
  const std::uint64_t spread = kSpreads[rng.uniform_u64(3)];
  const std::uint32_t base = static_cast<std::uint32_t>(rng.uniform_u64(1ull << 31));
  RandomRows out;
  for (std::size_t i = 0; i < rows; ++i) {
    out.sources.push_back(base + static_cast<std::uint32_t>(rng.uniform_u64(spread)));
    // Any non-zero verdict counts as flagged.
    out.verdicts.push_back(static_cast<int>(rng.uniform_int(-1, 2)));
  }
  switch (rng.uniform_u64(3)) {
    case 0: break;
    case 1: std::sort(out.sources.begin(), out.sources.end()); break;
    default:
      out.sources.insert(out.sources.end(), out.sources.begin(), out.sources.end());
      out.verdicts.insert(out.verdicts.end(), out.verdicts.begin(), out.verdicts.end());
  }
  return out;
}

TEST(GroupVerdictsTest, MatchesTheMapOracleOnRandomRows) {
  Rng rng{2024};
  for (int trial = 0; trial < 300; ++trial) {
    const RandomRows r = random_rows(rng, rng.uniform_u64(5000));
    expect_same_sources(group_verdicts_by_source(r.sources, r.verdicts),
                        group_by_map(r.sources, r.verdicts));
  }
}

TEST(GroupVerdictsTest, EmptyAndShortInputs) {
  EXPECT_TRUE(group_verdicts_by_source({}, {}).empty());
  // Only rows with both a source and a verdict count.
  const std::vector<std::uint32_t> sources{7, 3, 7};
  const std::vector<int> verdicts{1, 0};
  expect_same_sources(group_verdicts_by_source(sources, verdicts),
                      {{.src_addr = 3, .packets = 1, .flagged = 0},
                       {.src_addr = 7, .packets = 1, .flagged = 1}});
}

TEST(MergeSourceVerdictsTest, EqualsTheGroupByOfAllRows) {
  // Taps share sources here (a spoofed flood can reach several), so the
  // merge must combine them; disjoint ascending taps take the fast path.
  Rng rng{99};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t taps = 1 + rng.uniform_u64(8);
    std::vector<RandomRows> per_tap;
    std::vector<std::vector<SourceVerdict>> slices;
    RandomRows all;
    for (std::size_t t = 0; t < taps; ++t) {
      per_tap.push_back(random_rows(rng, rng.uniform_u64(600)));
      const RandomRows& r = per_tap.back();
      slices.push_back(group_verdicts_by_source(r.sources, r.verdicts));
      const std::size_t rows = std::min(r.sources.size(), r.verdicts.size());
      all.sources.insert(all.sources.end(), r.sources.begin(), r.sources.begin() + rows);
      all.verdicts.insert(all.verdicts.end(), r.verdicts.begin(), r.verdicts.begin() + rows);
    }
    const std::vector<std::span<const SourceVerdict>> views{slices.begin(), slices.end()};
    expect_same_sources(merge_source_verdicts(views), group_by_map(all.sources, all.verdicts));
  }
}

TEST(MergeSourceVerdictsTest, CombinesASourceTwoTapsShare) {
  const std::vector<SourceVerdict> a{{.src_addr = 1, .packets = 2, .flagged = 1},
                                     {.src_addr = 5, .packets = 3, .flagged = 3}};
  const std::vector<SourceVerdict> b{{.src_addr = 2, .packets = 1, .flagged = 0},
                                     {.src_addr = 5, .packets = 4, .flagged = 1}};
  const std::vector<SourceVerdict> empty;
  const std::vector<std::span<const SourceVerdict>> views{a, empty, b};
  expect_same_sources(merge_source_verdicts(views),
                      {{.src_addr = 1, .packets = 2, .flagged = 1},
                       {.src_addr = 2, .packets = 1, .flagged = 0},
                       {.src_addr = 5, .packets = 7, .flagged = 4}});
  EXPECT_TRUE(merge_source_verdicts({}).empty());
}

}  // namespace
}  // namespace ddoshield::ids

// Bit-equality matrix for the streaming window accumulator: incremental
// add/add_batch folds vs the one-shot compute_window_stats recompute, the
// canonical-ties fold, ordered partial merges, and the vectorised row
// builder vs make_feature_row — the determinism surface the sharded IDS
// pipeline stands on (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "capture/record_batch.hpp"
#include "features/schema.hpp"
#include "features/window_accumulator.hpp"
#include "features/window_stats.hpp"
#include "util/rng.hpp"

namespace ddoshield::features {
namespace {

using capture::PacketRecord;
using capture::RecordBatch;
using util::SimTime;

// Random window traffic with deliberate same-timestamp runs (tie handling
// is the interesting path) and enough src/port spread to exercise every
// tally: flows, SYN tracking, entropies, both Welford streams.
std::vector<PacketRecord> random_window(std::uint64_t seed, std::size_t count) {
  util::Rng rng{seed};
  std::vector<PacketRecord> out;
  out.reserve(count);
  std::int64_t t_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // ~40% of packets share the previous timestamp: long tie runs.
    if (rng.uniform_u64(9) >= 4) t_ns += 1 + static_cast<std::int64_t>(rng.uniform_u64(50000));
    PacketRecord r;
    r.timestamp = SimTime::nanos(t_ns);
    r.src_addr = 0x0A000000u + static_cast<std::uint32_t>(rng.uniform_u64(31));
    r.dst_addr = 0x0A000101u;
    r.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(200));
    r.dst_port = static_cast<std::uint16_t>(rng.uniform_u64(5) == 0 ? 80 : rng.uniform_u64(1023));
    const bool tcp = rng.uniform_u64(2) != 0;
    r.protocol = tcp ? 6 : 17;
    r.tcp_flags = tcp ? static_cast<std::uint8_t>(rng.uniform_u64(63)) : 0;
    r.seq = tcp ? static_cast<std::uint32_t>(rng.uniform_u64(1u << 30)) : 0;
    r.payload_bytes = static_cast<std::uint32_t>(rng.uniform_u64(1400));
    r.wire_bytes = r.payload_bytes + (tcp ? 40 : 28);
    r.origin = rng.uniform_u64(4) == 0 ? net::TrafficOrigin::kMiraiUdpFlood
                                       : net::TrafficOrigin::kHttp;
    r.label = net::traffic_class_of(r.origin);
    out.push_back(r);
  }
  return out;
}

void expect_stats_bit_equal(const WindowStats& a, const WindowStats& b) {
  EXPECT_EQ(a.packet_count, b.packet_count);
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  EXPECT_EQ(bits(a.byte_rate), bits(b.byte_rate));
  EXPECT_EQ(bits(a.dst_port_entropy), bits(b.dst_port_entropy));
  EXPECT_EQ(bits(a.src_addr_entropy), bits(b.src_addr_entropy));
  EXPECT_EQ(bits(a.syn_no_ack_ratio), bits(b.syn_no_ack_ratio));
  EXPECT_EQ(bits(a.short_lived_flows), bits(b.short_lived_flows));
  EXPECT_EQ(bits(a.repeated_attempts), bits(b.repeated_attempts));
  EXPECT_EQ(bits(a.seq_variance_log), bits(b.seq_variance_log));
  EXPECT_EQ(bits(a.mean_payload), bits(b.mean_payload));
  EXPECT_EQ(bits(a.udp_fraction), bits(b.udp_fraction));
}

constexpr SimTime kWindow = SimTime::millis(100);

// --------------------------------------------------------------------------
// Incremental fold vs one-shot recompute (25-seed fuzz matrix)
// --------------------------------------------------------------------------

class AccumulatorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccumulatorFuzz, IncrementalAddMatchesRecomputeBitForBit) {
  const auto packets = random_window(GetParam(), 700);
  WindowAccumulator acc{packets.size()};
  for (const auto& r : packets) acc.add(r);
  expect_stats_bit_equal(acc.finalize(kWindow),
                         compute_window_stats(packets, kWindow));
}

TEST_P(AccumulatorFuzz, BatchFoldMatchesRecomputeBitForBit) {
  const auto packets = random_window(GetParam() ^ 0x5bd1e995u, 700);
  RecordBatch batch;
  for (const auto& r : packets) batch.push_record(r);
  WindowAccumulator acc{packets.size()};
  // Fold in uneven chunks: chunk boundaries must be invisible.
  std::size_t begin = 0;
  std::size_t step = 1;
  while (begin < batch.size()) {
    const std::size_t end = std::min(batch.size(), begin + step);
    acc.add_batch(batch, begin, end);
    begin = end;
    step = step * 2 + 1;
  }
  expect_stats_bit_equal(acc.finalize(kWindow),
                         compute_window_stats(packets, kWindow));
}

// Permutes records only within same-timestamp runs — exactly the degree
// of freedom a different shard layout has over a tap's capture order.
std::vector<PacketRecord> shuffle_within_ties(std::vector<PacketRecord> packets,
                                              std::uint64_t seed) {
  util::Rng rng{seed};
  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= packets.size(); ++i) {
    if (i == packets.size() || packets[i].timestamp != packets[run_begin].timestamp) {
      for (std::size_t j = i - 1; j > run_begin; --j) {
        const std::size_t k = run_begin + rng.uniform_u64(j - run_begin + 1);
        std::swap(packets[j], packets[k]);
      }
      run_begin = i;
    }
  }
  return packets;
}

TEST_P(AccumulatorFuzz, OrderedPartialMergeIsInvariantToTieOrderWithinTaps) {
  // The sharded pipeline's determinism contract: per-tap canonical-ties
  // folds merged in a FIXED tap order give bit-identical statistics no
  // matter how same-timestamp capture order varied inside each tap (the
  // one thing a shard layout can perturb). Chan's Welford combination is
  // order-sensitive across taps — the fixed merge order pins that — but
  // must be insensitive to within-tie order inside each partial.
  const auto packets = random_window(GetParam() + 17, 600);
  constexpr std::size_t kTaps = 4;
  std::vector<std::vector<PacketRecord>> streams(kTaps);
  for (std::size_t i = 0; i < packets.size(); ++i)
    streams[i % kTaps].push_back(packets[i]);

  const auto merge_all = [&](bool shuffled) {
    WindowAccumulator merged{packets.size()};
    std::vector<WindowAccumulator> partials;
    for (std::size_t t = 0; t < kTaps; ++t) {
      const auto stream = shuffled
                              ? shuffle_within_ties(streams[t], GetParam() * 31 + t)
                              : streams[t];
      partials.emplace_back(stream.size());
      partials.back().set_canonical_ties(true);
      for (const auto& r : stream) partials.back().add(r);
    }
    for (auto& p : partials) {
      p.flush_ties();
      merged.merge_from(p);
    }
    return merged.finalize(kWindow);
  };

  expect_stats_bit_equal(merge_all(false), merge_all(true));
}

TEST_P(AccumulatorFuzz, CanonicalTiesEraseSameTimestampOrder) {
  // Shuffle only within same-timestamp runs (what shard layouts can do to
  // a tap's capture order); canonical-ties folds must not notice.
  const auto packets = random_window(GetParam() + 99, 500);
  const auto shuffled = shuffle_within_ties(packets, GetParam() * 2654435761u + 1);

  WindowAccumulator a{packets.size()};
  a.set_canonical_ties(true);
  for (const auto& r : packets) a.add(r);
  WindowAccumulator b{shuffled.size()};
  b.set_canonical_ties(true);
  for (const auto& r : shuffled) b.add(r);
  expect_stats_bit_equal(a.finalize(kWindow), b.finalize(kWindow));
}

INSTANTIATE_TEST_SUITE_P(TwentyFiveSeeds, AccumulatorFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

// --------------------------------------------------------------------------
// Row building
// --------------------------------------------------------------------------

TEST(MakeFeatureRowsTest, VectorisedRowsMatchPerRecordRows) {
  const auto packets = random_window(1234, 300);
  RecordBatch batch;
  for (const auto& r : packets) batch.push_record(r);
  const WindowStats stats = compute_window_stats(packets, kWindow);
  std::vector<std::uint32_t> identity(batch.size());
  std::iota(identity.begin(), identity.end(), 0u);
  const auto canonical = canonical_batch_order(batch, 0, batch.size());
  ASSERT_NE(canonical, identity) << "no tie run to reorder; coverage hole";
  // Arrival order (the flat IDS) and canonical order (the sharded IDS).
  for (const auto& order : {identity, canonical}) {
    std::vector<double> rows(order.size() * kFeatureCount, -1.0);
    make_feature_rows(batch, order, stats, rows);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const FeatureRow expect = make_feature_row(packets[order[i]], stats);
      for (std::size_t f = 0; f < kFeatureCount; ++f)
        EXPECT_DOUBLE_EQ(rows[i * kFeatureCount + f], expect[f])
            << "row " << i << " feature " << f;
    }
  }
}

TEST(MakeFeatureRowsTest, OrderedVariantEmitsInGivenOrder) {
  const auto packets = random_window(4321, 50);
  RecordBatch batch;
  for (const auto& r : packets) batch.push_record(r);
  const WindowStats stats = compute_window_stats(packets, kWindow);
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = static_cast<std::uint32_t>(batch.size()); i-- > 0;)
    order.push_back(i);
  std::vector<double> rows(order.size() * kFeatureCount, -1.0);
  make_feature_rows(batch, order, stats, rows);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const FeatureRow expect = make_feature_row(packets[order[i]], stats);
    for (std::size_t f = 0; f < kFeatureCount; ++f)
      EXPECT_DOUBLE_EQ(rows[i * kFeatureCount + f], expect[f]);
  }
  std::vector<double> short_by_one(rows.size() - 1);
  EXPECT_THROW(make_feature_rows(batch, order, stats, short_by_one), std::invalid_argument);
}

TEST(CanonicalBatchOrderTest, SortsWithinTimestampRunsOnly) {
  RecordBatch batch;
  const auto packets = random_window(777, 400);
  for (const auto& r : packets) batch.push_record(r);
  const auto order = canonical_batch_order(batch, 0, batch.size());
  ASSERT_EQ(order.size(), batch.size());
  // A permutation...
  std::vector<std::uint32_t> sorted{order.begin(), order.end()};
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // ...nondecreasing in timestamp, and content-sorted within each run.
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto prev = batch.record_at(order[i - 1]);
    const auto cur = batch.record_at(order[i]);
    EXPECT_LE(prev.timestamp.ns(), cur.timestamp.ns());
    if (prev.timestamp == cur.timestamp) {
      EXPECT_FALSE(record_content_less(cur, prev));
    }
  }
}

TEST(WindowAccumulatorTest, ResetClearsStateAndCanonicalFlag) {
  const auto packets = random_window(55, 100);
  WindowAccumulator acc;
  acc.set_canonical_ties(true);
  for (const auto& r : packets) acc.add(r);
  EXPECT_EQ(acc.packets(), packets.size());
  acc.reset();
  EXPECT_EQ(acc.packets(), 0u);
  // reset() rebuilds the accumulator wholesale: callers that want
  // canonical ties must re-arm it (the sharded pipeline does).
  EXPECT_FALSE(acc.canonical_ties());
  const WindowStats empty = acc.finalize(kWindow);
  EXPECT_EQ(empty.packet_count, 0u);
}

}  // namespace
}  // namespace ddoshield::features

#include "features/window_accumulator.hpp"

#include <cmath>
#include <stdexcept>
#include <tuple>

#include "net/packet.hpp"

namespace ddoshield::features {

WindowAccumulator::WindowAccumulator(std::size_t packet_hint)
    : flow_packets_(packet_hint / 4) {}

void WindowAccumulator::reset(std::size_t packet_hint) {
  *this = WindowAccumulator{packet_hint};
}

void WindowAccumulator::fold(const capture::PacketRecord& r) {
  // Operation-for-operation the per-packet loop of compute_window_stats:
  // any divergence here breaks the batched-vs-recompute bit-equality gate.
  ++packet_count_;
  total_bytes_ += r.wire_bytes;
  dst_ports_.add(r.dst_port);
  src_addrs_.add(r.src_addr);
  payload_stats_.add(static_cast<double>(r.payload_bytes));
  ++flow_packets_.find_or_insert(capture::FlowKey::of(r));

  if (r.is_tcp()) {
    ++tcp_packets_;
    seq_stats_.add(static_cast<double>(r.seq));
    const bool syn = r.has_flag(net::TcpFlags::kSyn);
    const bool ack = r.has_flag(net::TcpFlags::kAck);
    if (syn && !ack) {
      ++syn_no_ack_;
      ++syn_per_src_dport_.find_or_insert((std::uint64_t{r.src_addr} << 16) | r.dst_port);
    }
  } else if (r.is_udp()) {
    ++udp_packets_;
  }
}

void WindowAccumulator::add(const capture::PacketRecord& r) {
  if (!canonical_ties_) {
    fold(r);
    return;
  }
  if (!run_.empty() && run_.front().timestamp != r.timestamp) flush_ties();
  run_.push_back(r);
}

void WindowAccumulator::add_batch(const capture::RecordBatch& batch, std::size_t begin,
                                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) add(batch.record_at(i));
}

void WindowAccumulator::flush_ties() {
  if (run_.empty()) return;
  if (run_.size() > 1) std::sort(run_.begin(), run_.end(), record_content_less);
  for (const capture::PacketRecord& r : run_) fold(r);
  run_.clear();
}

void WindowAccumulator::merge_from(const WindowAccumulator& other) {
  flush_ties();
  if (!other.run_.empty()) {
    throw std::logic_error(
        "WindowAccumulator::merge_from: source has an unflushed tie run "
        "(call flush_ties() on it first)");
  }
  packet_count_ += other.packet_count_;
  total_bytes_ += other.total_bytes_;
  tcp_packets_ += other.tcp_packets_;
  udp_packets_ += other.udp_packets_;
  syn_no_ack_ += other.syn_no_ack_;
  seq_stats_.merge_from(other.seq_stats_);
  payload_stats_.merge_from(other.payload_stats_);
  dst_ports_.merge_from(other.dst_ports_);
  src_addrs_.merge_from(other.src_addrs_);
  other.flow_packets_.for_each([this](const capture::FlowKey& k, const std::uint32_t& v) {
    flow_packets_.find_or_insert(k) += v;
  });
  other.syn_per_src_dport_.for_each(
      [this](const std::uint64_t& k, const std::uint32_t& v) {
        syn_per_src_dport_.find_or_insert(k) += v;
      });
}

WindowStats WindowAccumulator::finalize(util::SimTime window_duration) {
  if (window_duration <= util::SimTime{}) {
    throw std::invalid_argument("WindowAccumulator: window duration must be positive");
  }
  flush_ties();
  WindowStats stats;
  if (packet_count_ == 0) return stats;

  stats.packet_count = packet_count_;
  stats.byte_rate = static_cast<double>(total_bytes_) / window_duration.to_seconds();
  stats.dst_port_entropy = dst_ports_.entropy();
  stats.src_addr_entropy = src_addrs_.entropy();
  stats.syn_no_ack_ratio = tcp_packets_ == 0 ? 0.0
                                             : static_cast<double>(syn_no_ack_) /
                                                   static_cast<double>(tcp_packets_);
  std::uint64_t short_lived = 0;
  flow_packets_.for_each(
      [&](const capture::FlowKey&, const std::uint32_t& count) { short_lived += count <= 2; });
  stats.short_lived_flows = static_cast<double>(short_lived);
  std::uint64_t repeated = 0;
  syn_per_src_dport_.for_each(
      [&](const std::uint64_t&, const std::uint32_t& syns) { repeated += syns >= 3; });
  stats.repeated_attempts = static_cast<double>(repeated);
  stats.seq_variance_log = std::log10(1.0 + seq_stats_.variance());
  stats.mean_payload = payload_stats_.mean();
  stats.udp_fraction =
      static_cast<double>(udp_packets_) / static_cast<double>(packet_count_);
  return stats;
}

bool record_content_less(const capture::PacketRecord& a, const capture::PacketRecord& b) {
  const auto key = [](const capture::PacketRecord& r) {
    return std::make_tuple(r.timestamp.ns(), r.src_addr, r.dst_addr, r.src_port, r.dst_port,
                           r.protocol, r.tcp_flags, r.seq, r.payload_bytes, r.wire_bytes,
                           static_cast<std::uint8_t>(r.label),
                           static_cast<std::uint8_t>(r.origin));
  };
  return key(a) < key(b);
}

std::vector<std::uint32_t> canonical_batch_order(const capture::RecordBatch& batch,
                                                 std::size_t begin, std::size_t end) {
  std::vector<std::uint32_t> order;
  order.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) order.push_back(static_cast<std::uint32_t>(i));
  const auto& ts = batch.timestamp_ns();
  std::size_t run_start = 0;
  const auto sort_run = [&](std::size_t lo, std::size_t hi) {
    if (hi - lo < 2) return;
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
              order.begin() + static_cast<std::ptrdiff_t>(hi),
              [&](std::uint32_t a, std::uint32_t b) {
                return record_content_less(batch.record_at(a), batch.record_at(b));
              });
  };
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (ts[order[k]] != ts[order[run_start]]) {
      sort_run(run_start, k);
      run_start = k;
    }
  }
  sort_run(run_start, order.size());
  return order;
}

void make_feature_rows(const capture::RecordBatch& batch, std::span<const std::uint32_t> order,
                       const WindowStats& stats, std::span<double> out) {
  if (out.size() != order.size() * kFeatureCount)
    throw std::invalid_argument("make_feature_rows: output is not order.size() rows");
  const std::size_t n = order.size();
  const auto row = [&out](std::size_t k) { return out.data() + k * kFeatureCount; };
  FeatureRow stamped{};
  stats.fill_row(stamped);
  for (std::size_t k = 0; k < n; ++k) std::copy(stamped.begin(), stamped.end(), row(k));
  // One sweep per column: each pass reads one contiguous array and writes
  // one row slot — the vectorised twin of fill_basic_features.
  const auto& ts = batch.timestamp_ns();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kTimestamp] = static_cast<double>(ts[order[k]]) * 1e-9;
  const auto& src = batch.src_addr();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kSrcAddr] = static_cast<double>(src[order[k]]) / 4294967296.0;
  const auto& dst = batch.dst_addr();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kDstAddr] = static_cast<double>(dst[order[k]]) / 4294967296.0;
  const auto& proto = batch.protocol();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kProtoIsTcp] = proto[order[k]] == 6 ? 1.0 : 0.0;
  const auto& sport = batch.src_port();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kSrcPort] = static_cast<double>(sport[order[k]]) / 65535.0;
  const auto& dport = batch.dst_port();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kDstPort] = static_cast<double>(dport[order[k]]) / 65535.0;
  const auto& payload = batch.payload_bytes();
  for (std::size_t k = 0; k < n; ++k)
    row(k)[kPayloadBytes] = static_cast<double>(payload[order[k]]);
}

}  // namespace ddoshield::features

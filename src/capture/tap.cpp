#include "capture/tap.hpp"

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::capture {

PacketTap::PacketTap(TapConfig config)
    : config_{config},
      m_packets_{&obs::MetricsRegistry::global().counter("capture.tap.packets")},
      m_dropped_{&obs::MetricsRegistry::global().counter("capture.tap.dropped")},
      m_late_sink_{&obs::MetricsRegistry::global().counter("capture.tap.late_sink")},
      m_batch_flushes_{&obs::MetricsRegistry::global().counter("capture.batch.flushes")},
      m_batch_records_{&obs::MetricsRegistry::global().counter("capture.batch.records")},
      m_batch_partial_{
          &obs::MetricsRegistry::global().counter("capture.batch.partial_flushes")},
      flight_{&obs::FlightRecorder::global()},
      lat_tap_ns_{&obs::MetricsRegistry::global().latency("flight.capture.tap_lag_ns")} {
  if (config_.batch_capacity == 0) config_.batch_capacity = 1;
  batch_.set_clock_offset_ns(config_.clock_offset.ns());
}

void PacketTap::attach_to(net::Node& node) {
  node.add_tap([this, &node](const net::Packet& pkt, net::TapDirection dir) {
    on_packet(pkt, dir, node);
  });
}

void PacketTap::note_late_sink() {
  // The earlier traffic is unrecoverable; count loudly instead of failing
  // silently (experiments assert late_sinks() == 0, see header contract).
  ++late_sinks_;
  m_late_sink_->inc();
}

void PacketTap::add_sink(SinkFn sink) {
  if (packets_captured_ > 0) note_late_sink();
  sinks_.push_back(std::move(sink));
}

void PacketTap::add_batch_sink(BatchSink* sink) {
  if (packets_captured_ > 0) note_late_sink();
  batch_sinks_.push_back(sink);
  batch_.reserve(config_.batch_capacity);
}

void PacketTap::flush_batch() {
  if (batch_.empty()) return;
  m_batch_flushes_->inc();
  m_batch_records_->inc(batch_.size());
  if (batch_.size() < config_.batch_capacity) m_batch_partial_->inc();
  for (BatchSink* sink : batch_sinks_) sink->on_batch(batch_);
  batch_.clear();
}

void PacketTap::on_packet(const net::Packet& pkt, net::TapDirection dir, net::Node& node) {
  if (!enabled_) {
    m_dropped_->inc();
    return;
  }
  switch (dir) {
    case net::TapDirection::kReceived:
      if (!config_.capture_received) return;
      break;
    case net::TapDirection::kSent:
      if (!config_.capture_sent) return;
      break;
  }
  ++packets_captured_;
  m_packets_->inc();
  if (flight_->sampled(pkt.uid)) {
    const util::SimTime now = node.simulator().now();
    flight_->record(obs::FlightStage::kCaptureTap, pkt.uid, now.ns(), 0,
                    pkt.wire_bytes());
    lat_tap_ns_->observe(static_cast<std::uint64_t>((now - pkt.sent_at).ns()));
  }
  // Counting semantics above are load-bearing (bench goldens); only the
  // record construction is skippable when nobody is listening.
  if (sinks_.empty() && batch_sinks_.empty()) return;
  const util::SimTime at = node.simulator().now() + config_.clock_offset;
  if (!sinks_.empty()) {
    const PacketRecord record = PacketRecord::from_packet(pkt, at);
    for (const auto& sink : sinks_) sink(record);
  }
  if (!batch_sinks_.empty()) {
    batch_.push_packet(pkt, at);
    if (batch_.size() >= config_.batch_capacity) flush_batch();
  }
}

}  // namespace ddoshield::capture

// PacketTap: the testbed's Wireshark.
//
// Attaches to a node (typically the TServer, so it sees everything that
// reaches or leaves the victim) and streams PacketRecords to subscribers:
// the dataset recorder during generation runs, the real-time IDS during
// detection runs. Capturing both received and sent packets makes the
// trace bidirectional, like port-mirroring the victim's access link.
//
// Two delivery paths coexist:
//
//  * per-record sinks (add_sink): one SinkFn call per captured packet —
//    the original fan-out, kept for row-oriented consumers (the dataset
//    recorder);
//  * batch sinks (add_batch_sink): captured packets accumulate into a
//    columnar RecordBatch and every BatchSink sees the same const batch
//    once per `batch_capacity` packets, or earlier at an explicit
//    flush_batch() on a window boundary. No std::function, no per-packet
//    indirect call, no AoS copy per subscriber.
//
// Attach-before-run contract: sinks registered after the tap has already
// captured traffic have silently missed every earlier packet — there is
// no replay. Register every sink (and batch sink) before the traffic of
// interest starts; a late registration is counted on the
// "capture.tap.late_sink" counter so experiments can assert it stayed
// zero instead of debugging a mysteriously short dataset.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "capture/packet_record.hpp"
#include "capture/record_batch.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::obs {
class FlightRecorder;
}

namespace ddoshield::capture {

struct TapConfig {
  bool capture_received = true;
  bool capture_sent = true;
  /// Added to every record's timestamp: maps the simulation's 0-based
  /// clock onto the capture wall clock. A detection run performed after a
  /// training capture carries a later offset, exactly like the absolute
  /// timestamps in consecutive real pcaps.
  util::SimTime clock_offset;
  /// Captured packets per columnar batch before batch sinks fire. Only
  /// relevant once a batch sink is registered.
  std::size_t batch_capacity = 256;
};

class PacketTap {
 public:
  using SinkFn = std::function<void(const PacketRecord&)>;

  explicit PacketTap(TapConfig config = {});

  /// Registers with the node; the tap must outlive the node's traffic.
  void attach_to(net::Node& node);

  /// Subscribes a per-record sink. See the attach-before-run contract in
  /// the header comment: packets captured before this call are gone, and
  /// a late registration bumps "capture.tap.late_sink".
  void add_sink(SinkFn sink);

  /// Subscribes a non-owning columnar batch sink (same contract as
  /// add_sink). The sink must outlive the tap's traffic.
  void add_batch_sink(BatchSink* sink);

  /// Delivers the current partial batch (if any) to every batch sink and
  /// resets it. Window-close pulls call this so a window's final records
  /// do not sit in a partial batch across the boundary.
  void flush_batch();

  /// Pausing keeps the tap attached but discards traffic (used between
  /// the generation and detection phases of an experiment).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  std::uint64_t packets_captured() const { return packets_captured_; }
  /// Sinks registered after the first captured packet (should be zero in
  /// a well-formed experiment; see the attach-before-run contract).
  std::uint64_t late_sinks() const { return late_sinks_; }

 private:
  void on_packet(const net::Packet& pkt, net::TapDirection dir, net::Node& node);
  void note_late_sink();

  TapConfig config_;
  std::vector<SinkFn> sinks_;
  std::vector<BatchSink*> batch_sinks_;
  RecordBatch batch_;
  bool enabled_ = true;
  std::uint64_t packets_captured_ = 0;
  std::uint64_t late_sinks_ = 0;
  obs::Counter* m_packets_;    // aggregate "capture.tap.packets"
  obs::Counter* m_dropped_;    // "capture.tap.dropped": seen while paused
  obs::Counter* m_late_sink_;  // "capture.tap.late_sink": contract breach
  obs::Counter* m_batch_flushes_;  // "capture.batch.flushes"
  obs::Counter* m_batch_records_;  // "capture.batch.records"
  obs::Counter* m_batch_partial_;  // "capture.batch.partial_flushes"

  // Flight-recorder wiring: the capture-tap stage of sampled packets and
  // the send-to-tap lag series feeding the IDS ingress attribution.
  obs::FlightRecorder* flight_;
  obs::LogLinearHistogram* lat_tap_ns_;
};

}  // namespace ddoshield::capture

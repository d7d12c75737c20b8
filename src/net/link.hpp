// Point-to-point duplex link with finite rate, propagation delay, and a
// drop-tail buffer.
//
// Queueing is modelled with the standard fluid approximation: each
// direction tracks the time until which its transmitter is busy; the
// implied backlog in bytes is (busy_until - now) * rate / 8. A packet that
// would push the backlog past the configured buffer size is dropped. This
// reproduces the two behaviours the testbed needs from NS-3 links —
// serialization delay under load and loss under flood — at a fraction of
// the bookkeeping.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::obs {
class FlightRecorder;
}

namespace ddoshield::net {

class Node;
class Simulator;

struct LinkConfig {
  double rate_bps = 100e6;                 // 100 Mbit/s default access link
  util::SimTime delay = util::SimTime::micros(500);
  std::uint32_t queue_bytes = 128 * 1024;  // per-direction drop-tail buffer
};

/// Per-direction counters, exposed for experiment harnesses. Conservation
/// holds per direction once the simulator drains:
///   offered  = tx_packets + dropped_packets
///   tx_packets = delivered_packets + lost_in_flight_packets (+ in flight)
struct LinkDirectionStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;  // rejected at ingress: queue, down, fault
  std::uint64_t dropped_bytes = 0;
  std::uint64_t fault_dropped_packets = 0;  // subset of dropped: injected faults
  std::uint64_t delivered_packets = 0;      // handed to the peer node
  std::uint64_t lost_in_flight_packets = 0; // link went down mid-propagation
  std::uint64_t corrupted_packets = 0;      // delivered with fault-mangled headers
};

/// Transient degradation injected by the testkit: probabilistic loss,
/// header corruption, and added latency/jitter on top of the configured
/// propagation delay. All randomness is drawn from a deterministic,
/// seed-derived stream so fault schedules replay exactly.
struct LinkFault {
  double drop_probability = 0.0;     // Bernoulli per offered packet
  double corrupt_probability = 0.0;  // Bernoulli per delivered packet
  util::SimTime extra_delay;         // added to every delivery
  util::SimTime jitter;              // uniform extra in [0, jitter)

  bool active() const {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           !extra_delay.is_zero() || !jitter.is_zero();
  }
};

class ShardChannel;

class Link {
 public:
  /// Creates the link and registers an interface on both endpoints.
  /// The nodes must outlive the link; topology teardown is whole-network.
  Link(Simulator& sim, Node& a, Node& b, LinkConfig config);

  /// Cross-shard form: each endpoint lives on its own simulator, and each
  /// direction ships deliveries through a ShardChannel instead of posting
  /// a local event. The transmit side (rate, queue, arrival time) runs
  /// identical arithmetic on the sender's shard; the receiving shard posts
  /// the delivery when it drains the channel at a window boundary, so the
  /// packet arrives at exactly the time an intra-shard link would deliver
  /// it. Either channel may be null when that direction is unused.
  /// Propagation delay must exceed the coordinator's lookahead window —
  /// enforced by the shard coordinator, not here.
  Link(Simulator& sim_a, Simulator& sim_b, Node& a, Node& b, LinkConfig config,
       ShardChannel* a_to_b, ShardChannel* b_to_a);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// True when this link bridges two shards (per-direction channels).
  bool cross_shard() const { return remote_[0] != nullptr || remote_[1] != nullptr; }

  /// Re-resolves the instrument pointers of the direction sending from
  /// `end` against the calling thread's current observation domain. The
  /// shard coordinator calls this once per endpoint while the endpoint's
  /// shard domain is installed, so each transmit side of a cross-shard
  /// link counts into its own shard's registry (no shared counters across
  /// shard threads). Intra-shard links never need it.
  void rebind_obs(const Node& end);

  /// Transmits `pkt` from `from` toward the opposite endpoint. Returns
  /// false if the drop-tail buffer rejected the packet.
  bool transmit(const Node& from, Packet pkt);

  /// Administrative state; a downed link drops everything (device churn).
  /// Packets already propagating when the link goes down are lost and
  /// accounted as lost_in_flight_packets on their sending direction.
  /// Unsupported on cross-shard links (up_ would be read across shard
  /// threads); trunk links between shards do not churn.
  void set_up(bool up);
  bool is_up() const { return up_; }

  /// Installs a fault profile on both directions; the seed derives the
  /// deterministic stream behind drop/corrupt/jitter draws.
  void set_fault(const LinkFault& fault, std::uint64_t seed);
  void clear_fault() { fault_ = LinkFault{}; }
  const LinkFault& fault() const { return fault_; }

  const LinkDirectionStats& stats_from(const Node& from) const;
  const LinkConfig& config() const { return config_; }
  Node& peer_of(const Node& n) const;

  /// Bytes currently implied queued in the transmitter leaving `from`
  /// (the fluid-model backlog at the simulator's current time). The obs
  /// sampler probes this for per-link queue-occupancy gauges.
  double queue_backlog_bytes(const Node& from) const;

 private:
  struct Direction {
    util::SimTime busy_until;
    LinkDirectionStats stats;

    // Aggregate registry instruments plus flight-recorder wiring, resolved
    // per direction from the *sending* endpoint's observation domain. On an
    // intra-shard link both directions resolve the same process-wide
    // instruments; on a cross-shard link each transmit side resolves into
    // its own shard's domain so the two shard threads never touch the same
    // counter (see rebind_obs).
    obs::Counter* m_tx_packets = nullptr;
    obs::Counter* m_tx_bytes = nullptr;
    obs::Counter* m_dropped_packets = nullptr;
    obs::Counter* m_dropped_bytes = nullptr;
    obs::Gauge* m_queue_bytes = nullptr;
    obs::FlightRecorder* flight = nullptr;
    obs::LogLinearHistogram* lat_queue_ns = nullptr;
    obs::LogLinearHistogram* lat_transit_ns = nullptr;
  };

  int index_of(const Node& n) const;

  void corrupt_header(Packet& pkt);
  /// Resolves dirs_[end]'s instruments from the current thread's domain.
  void resolve_obs(int end);

  // Per-endpoint simulators: identical for an intra-shard link; the
  // sending side's clock/pool always comes from sims_[index_of(from)], so
  // a cross-shard direction computes its arrival times on its own shard.
  Simulator* sims_[2];
  Node* ends_[2];
  // Per-direction cross-shard channel (null = deliver locally).
  ShardChannel* remote_[2] = {nullptr, nullptr};
  LinkConfig config_;
  Direction dirs_[2];
  bool up_ = true;
  LinkFault fault_;
  util::Rng fault_rng_{0};
};

}  // namespace ddoshield::net

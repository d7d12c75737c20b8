#include "net/link.hpp"

#include <stdexcept>

#include "net/node.hpp"
#include "net/shard_channel.hpp"
#include "net/simulator.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::net {

Link::Link(Simulator& sim, Node& a, Node& b, LinkConfig config)
    : Link{sim, sim, a, b, config, nullptr, nullptr} {}

Link::Link(Simulator& sim_a, Simulator& sim_b, Node& a, Node& b, LinkConfig config,
           ShardChannel* a_to_b, ShardChannel* b_to_a)
    : sims_{&sim_a, &sim_b}, ends_{&a, &b}, remote_{a_to_b, b_to_a}, config_{config} {
  if (&a == &b) throw std::invalid_argument("Link: cannot connect a node to itself");
  if (config_.rate_bps <= 0.0) throw std::invalid_argument("Link: rate must be positive");
  resolve_obs(0);
  resolve_obs(1);
  a.attach_link(*this);
  b.attach_link(*this);
}

void Link::resolve_obs(int end) {
  Direction& dir = dirs_[end];
  auto& reg = obs::MetricsRegistry::global();
  dir.m_tx_packets = &reg.counter("net.link.tx_packets");
  dir.m_tx_bytes = &reg.counter("net.link.tx_bytes");
  dir.m_dropped_packets = &reg.counter("net.link.dropped_packets");
  dir.m_dropped_bytes = &reg.counter("net.link.dropped_bytes");
  dir.m_queue_bytes = &reg.gauge("net.link.queue_bytes");
  dir.flight = &obs::FlightRecorder::global();
  dir.lat_queue_ns = &reg.latency("flight.net.queue_ns");
  dir.lat_transit_ns = &reg.latency("flight.net.transit_ns");
}

void Link::rebind_obs(const Node& end) { resolve_obs(index_of(end)); }

int Link::index_of(const Node& n) const {
  if (&n == ends_[0]) return 0;
  if (&n == ends_[1]) return 1;
  throw std::invalid_argument("Link: node is not an endpoint of this link");
}

Node& Link::peer_of(const Node& n) const { return *ends_[1 - index_of(n)]; }

const LinkDirectionStats& Link::stats_from(const Node& from) const {
  return dirs_[index_of(from)].stats;
}

double Link::queue_backlog_bytes(const Node& from) const {
  const Direction& dir = dirs_[index_of(from)];
  const util::SimTime now = sims_[index_of(from)]->now();
  const util::SimTime backlog =
      dir.busy_until > now ? dir.busy_until - now : util::SimTime{};
  return backlog.to_seconds() * config_.rate_bps / 8.0;
}

void Link::set_up(bool up) {
  if (cross_shard())
    throw std::logic_error("Link: churn is unsupported on cross-shard links");
  up_ = up;
}

void Link::set_fault(const LinkFault& fault, std::uint64_t seed) {
  // Both transmit sides draw from one RNG stream; on a cross-shard link
  // those sides run on different threads, and the draw interleaving would
  // be nondeterministic anyway. Trunk links are plumbing, not subjects.
  if (cross_shard() && fault.active())
    throw std::logic_error("Link: faults are unsupported on cross-shard links");
  fault_ = fault;
  fault_rng_ = util::Rng{seed};
}

// Deterministic header mangling: the kind of damage a flaky L2 segment
// inflicts — a few flipped bits in fields the IDS and the TCP demux both
// read. Payload size is left intact so link/queue accounting stays exact.
void Link::corrupt_header(Packet& pkt) {
  pkt.corrupted = true;
  switch (fault_rng_.uniform_u64(4)) {
    case 0: pkt.seq ^= 1u << fault_rng_.uniform_u64(32); break;
    case 1: pkt.src_port ^= static_cast<std::uint16_t>(1u << fault_rng_.uniform_u64(16)); break;
    case 2: pkt.dst_port ^= static_cast<std::uint16_t>(1u << fault_rng_.uniform_u64(16)); break;
    default: pkt.tcp_flags ^= static_cast<std::uint8_t>(1u << fault_rng_.uniform_u64(6)); break;
  }
}

bool Link::transmit(const Node& from, Packet pkt) {
  const int from_index = index_of(from);
  Simulator& sim = *sims_[from_index];
  auto& dir = dirs_[from_index];
  const std::uint32_t bytes = pkt.wire_bytes();

  if (!up_) {
    ++dir.stats.dropped_packets;
    dir.stats.dropped_bytes += bytes;
    dir.m_dropped_packets->inc();
    dir.m_dropped_bytes->inc(bytes);
    return false;
  }

  if (fault_.drop_probability > 0.0 && fault_rng_.bernoulli(fault_.drop_probability)) {
    ++dir.stats.dropped_packets;
    dir.stats.dropped_bytes += bytes;
    ++dir.stats.fault_dropped_packets;
    dir.m_dropped_packets->inc();
    dir.m_dropped_bytes->inc(bytes);
    return false;
  }

  const util::SimTime now = sim.now();
  const util::SimTime backlog =
      dir.busy_until > now ? dir.busy_until - now : util::SimTime{};
  const double backlog_bytes = backlog.to_seconds() * config_.rate_bps / 8.0;
  if (backlog_bytes + bytes > static_cast<double>(config_.queue_bytes)) {
    ++dir.stats.dropped_packets;
    dir.stats.dropped_bytes += bytes;
    dir.m_dropped_packets->inc();
    dir.m_dropped_bytes->inc(bytes);
    return false;
  }

  const util::SimTime tx_time =
      util::SimTime::from_seconds(static_cast<double>(bytes) * 8.0 / config_.rate_bps);
  const util::SimTime start = dir.busy_until > now ? dir.busy_until : now;
  dir.busy_until = start + tx_time;
  util::SimTime arrival = dir.busy_until + config_.delay;
  if (fault_.active()) {
    arrival += fault_.extra_delay;
    if (!fault_.jitter.is_zero()) {
      arrival += util::SimTime::from_seconds(fault_rng_.uniform() * fault_.jitter.to_seconds());
    }
    if (fault_.corrupt_probability > 0.0 &&
        fault_rng_.bernoulli(fault_.corrupt_probability)) {
      corrupt_header(pkt);
      ++dir.stats.corrupted_packets;
    }
  }

  ++dir.stats.tx_packets;
  dir.stats.tx_bytes += bytes;
  dir.m_tx_packets->inc();
  dir.m_tx_bytes->inc(bytes);
  dir.m_queue_bytes->set(backlog_bytes + bytes);

  if (dir.flight->sampled(pkt.uid)) {
    // All three timestamps of this packet's wire life are known here, so
    // the per-stage latency series fill in one place; the ring events are
    // what a post-mortem dump replays. (Link rx is recorded at actual
    // delivery below, so dumps never show phantom arrivals.)
    dir.flight->record(obs::FlightStage::kNetEnqueue, pkt.uid, now.ns(), 0, bytes);
    dir.flight->record(obs::FlightStage::kLinkTx, pkt.uid, start.ns());
    dir.lat_queue_ns->observe(static_cast<std::uint64_t>((start - now).ns()));
    dir.lat_transit_ns->observe(static_cast<std::uint64_t>((arrival - start).ns()));
  }

  Node* peer = ends_[1 - from_index];
  Direction* sender_dir = &dir;

  if (ShardChannel* channel = remote_[from_index]) {
    // Cross-shard: the arrival time is final (computed above with the same
    // arithmetic as the local path); the receiving shard finishes the
    // delivery when it drains the channel at its next window boundary.
    // Trunk links do not churn, so there is no up_ re-check at delivery.
    channel->push(ShardMsg{std::move(pkt), arrival.ns(), peer, &sender_dir->stats});
    return true;
  }

  // The packet rides out its flight in a pool slot; the delivery closure
  // (five pointers — inline in the event node) owns the slot and releases
  // it on both outcomes. Steady state this path never touches the heap.
  Simulator* simp = &sim;
  Packet* slot = sim.packet_pool().acquire();
  *slot = std::move(pkt);
  sim.post_at(arrival, [peer, sender_dir, slot, simp, this] {
    if (up_) {
      ++sender_dir->stats.delivered_packets;
      if (sender_dir->flight->sampled(slot->uid)) {
        sender_dir->flight->record(obs::FlightStage::kLinkRx, slot->uid, simp->now().ns(),
                                   0, slot->wire_bytes());
      }
      peer->deliver(std::move(*slot));
    } else {
      // The link went down while the packet was propagating: account the
      // loss so per-link conservation (tx = delivered + lost) still holds.
      ++sender_dir->stats.lost_in_flight_packets;
    }
    simp->packet_pool().release(slot);
  });
  return true;
}

}  // namespace ddoshield::net

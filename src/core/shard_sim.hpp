// Sharded conservative-PDES coordinator.
//
// Partitions one topology across N shard event loops, each a private
// net::Simulator (own calendar queue, own PacketPool, own observation
// domain) driven by its own thread. Cross-shard links keep their transmit
// side on the sending shard and ship deliveries through per-direction
// ShardChannels (SpscRing fast path); shards synchronise conservatively
// with the classic bounded-lag window scheme:
//
//   lookahead L  = min propagation delay over all cross-shard links
//   window j     = simulated time (t0 + j*L, t0 + (j+1)*L]
//
//   loop per shard thread:
//     barrier #1   — every producer quiesced for the previous window
//     drain inbound channels, post deliveries into own calendar
//     barrier #2   — every drain complete before anyone executes
//     run_until(min(t0 + (j+1)*L, until))
//
// Safety: a packet transmitted at time t on a cross-shard link arrives at
// t' >= t + L. Events executed in window j have t in (T_{j-1}, T_j], so
// t' > T_j — strictly inside a later window — and is guaranteed to be
// sitting in the channel by the barrier that opens that window. No shard
// can ever receive a message in its past, so no rollback is needed.
//
// Determinism: for a fixed seed and fixed shard count, runs are exactly
// reproducible. Within a shard the calendar queue's (when, seq) order is
// total; cross-shard messages are drained between two barriers, by the
// receiving shard only, iterating its inbound channels in creation order
// with per-channel FIFO — so calendar seq assignment, and therefore every
// tie-break, replays identically. Single-shard mode takes none of these
// paths (no threads, no windows, no channels) and is bit-identical to
// driving a plain Simulator; its one shard still observes into a private
// domain, like every shard of a threaded run.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/shard_channel.hpp"
#include "net/simulator.hpp"
#include "obs/domain.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::core {

struct ShardSimConfig {
  std::size_t shard_count = 1;
  /// Synchronisation window override. Zero (default) derives the window
  /// from the topology: the minimum propagation delay over cross-shard
  /// links. A non-zero value is still clamped to that minimum — a larger
  /// window would let messages arrive inside the executing window.
  util::SimTime lookahead;
  /// Ring capacity per cross-shard channel direction (messages per
  /// window before the mutex overflow path engages).
  std::size_t channel_capacity = 4096;
};

/// Aggregated cross-shard transport accounting, summed over channels.
struct ShardChannelStats {
  std::uint64_t shipped = 0;
  std::uint64_t drained = 0;
  std::uint64_t overflowed = 0;
  std::size_t channels = 0;
};

class ShardedSim {
 public:
  explicit ShardedSim(ShardSimConfig config = {});
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  net::Simulator& simulator(std::size_t shard);
  /// The shard's private observation domain (every S, including 1).
  obs::ObsDomain& domain(std::size_t shard);

  /// Creates a node owned by, and scheduled on, the given shard. The
  /// node's cached instrument pointers resolve into the shard's domain.
  net::Node& add_node(std::size_t shard, const std::string& name,
                      net::Ipv4Address addr);
  std::size_t shard_of(const net::Node& node) const;

  /// Connects two coordinator-owned nodes. Same shard: a plain local
  /// link, byte-identical behaviour to Network::add_link. Different
  /// shards: a channel-bridged link; its propagation delay must be > 0
  /// (it bounds the lookahead window) and it supports neither churn nor
  /// fault injection.
  net::Link& connect(net::Node& a, net::Node& b, net::LinkConfig config = {});

  /// Advances every shard to exactly `until`. S == 1 runs inline on the
  /// calling thread; S > 1 spawns one thread per shard for the window
  /// loop and joins before returning. A shard-thread exception is
  /// rethrown here after every thread has parked.
  void run_until(util::SimTime until);

  /// Registers a fleet-wide synchronisation hook: at every multiple of
  /// `period` the whole fleet pauses at exactly that simulated instant
  /// (events scheduled at the boundary run first) and `fn(boundary)` is
  /// invoked once, on shard 0's thread, with every other shard thread
  /// parked at a barrier — the hook may therefore read and mutate state
  /// across all shards, and may hand per-shard work back to the parked
  /// threads with for_each_shard. S == 1 invokes the hook inline between
  /// run_until segments, bit-identical pause points. The sub-stepping arithmetic is
  /// local per shard thread (identical on all of them), so hook pauses
  /// never change message timing, only where execution briefly parks.
  ///
  /// Several hooks may coexist with independent periods (the IDS window
  /// close plus the telemetry tick): the fleet parks at every multiple of
  /// every period, and hooks sharing a boundary instant run back-to-back
  /// in registration order — deterministic, so "arm the pipeline, then
  /// the telemetry" means detection state is final before it is sampled.
  /// Periods must be positive. Call before run_until.
  void add_sync_hook(util::SimTime period, std::function<void(util::SimTime)> fn);

  /// Runs `fn(s)` once for every shard `s` and returns when all have
  /// finished. Called from a sync hook of a multi-shard run, each parked
  /// shard runs its call on its own thread (its observation domain
  /// installed) while shard 0's thread runs `fn(0)`; the fleet stays
  /// parked at the boundary throughout, so the calls may touch only what
  /// their own shard owns. Outside run_until, or at S == 1, it calls
  /// fn(0) ... fn(S-1) in order on the calling thread, each under its
  /// shard's domain. If a call throws, for_each_shard rethrows once every
  /// shard has finished, which stops the hook, and run_until rethrows it
  /// after the fleet parks. During a run only a sync hook may call it
  /// (not a shard event, and not `fn` itself).
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  std::size_t sync_hook_count() const { return hooks_.size(); }

  /// Effective lookahead the next run will use (zero until a cross-shard
  /// link exists, in which case a multi-shard run is windowless).
  util::SimTime lookahead() const;
  std::size_t link_count() const { return links_.size(); }
  net::Link& link_at(std::size_t i) { return *links_.at(i); }
  /// Synchronisation windows executed across all run_until calls.
  std::uint64_t windows() const { return windows_; }
  std::size_t cross_links() const { return cross_link_count_; }
  ShardChannelStats channel_stats() const;

  // --- shard-health profiler surface ---------------------------------------
  /// Cumulative wall nanoseconds this shard's thread spent waiting at the
  /// window barriers — the conservative-PDES "straggler tax". Written by
  /// the shard thread with relaxed atomics; read from sync hooks (fleet
  /// parked) or after run_until. Always 0 when S == 1 (no barriers).
  std::uint64_t barrier_stall_ns(std::size_t shard) const;
  /// Max/mean ratio of per-shard executed-event counts since the last
  /// call (1.0 = perfectly balanced; S == 1 is always 1.0). Stateful:
  /// intended for exactly one telemetry probe.
  double load_imbalance();

  /// Folds every shard's private metrics domain into the process-wide
  /// registry so one snapshot covers the fleet. Call once after the final
  /// run; idempotent.
  void merge_metrics();

 private:
  struct Shard {
    obs::ObsDomain domain;
    std::unique_ptr<net::Simulator> sim;
    std::vector<std::unique_ptr<net::Node>> nodes;
    std::vector<net::ShardChannel*> inbound;  // drained in creation order
    /// Wall ns parked at barriers; relaxed (owner writes, hook reads).
    std::atomic<std::uint64_t> barrier_stall_ns{0};
  };

  struct SyncHook {
    std::int64_t period_ns;
    std::function<void(util::SimTime)> fn;
  };

  /// Earliest hook boundary strictly after `cursor_ns` (INT64_MAX if no
  /// hooks). Pure per-thread arithmetic — every worker computes the same
  /// sub-step sequence with no shared state.
  std::int64_t next_hook_after(std::int64_t cursor_ns) const;
  /// Runs every hook whose period divides `boundary_ns`, in registration
  /// order.
  void run_hooks_at(std::int64_t boundary_ns);

  /// Waits at the run's barrier, adding the wait to the shard's stall.
  void wait_at_barrier(Shard& shard);
  /// Posts every queued inbound delivery into the shard's calendar.
  void drain_inbound(Shard& shard);
  void worker(std::size_t shard_index, util::SimTime t0, util::SimTime until,
              std::int64_t lookahead_ns);
  void record_failure();

  ShardSimConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<net::ShardChannel>> channels_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unordered_map<const net::Node*, std::size_t> node_shard_;
  util::SimTime min_cross_delay_;  // zero until the first cross-shard link
  std::size_t cross_link_count_ = 0;
  std::vector<SyncHook> hooks_;
  std::uint64_t windows_ = 0;
  bool merged_ = false;
  std::vector<std::uint64_t> imbalance_last_;  // load_imbalance() state

  // Shard-thread failure funnel: first exception wins, the rest of the
  // fleet keeps hitting barriers (skipping work) so nobody deadlocks.
  std::mutex failure_mutex_;
  std::exception_ptr failure_;
  class RunState;
  RunState* run_state_ = nullptr;  // live only inside run_until
};

}  // namespace ddoshield::core

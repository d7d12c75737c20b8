// Clustered fleet workload for the sharded simulator — the subject of the
// cross-shard-count equivalence suite and the scale benchmarks.
//
// Topology (shard-count invariant by construction):
//
//   cluster 0:  dev ... dev — edge_0 ─┐
//   cluster 1:  dev ... dev — edge_1 ─┼─ core ── tserver
//   ...                               │
//   cluster C-1: ...        — edge_C ─┘
//
// The cluster count C is fixed by config, independent of the shard count
// S; cluster c lands on shard c % S (core and tserver on shard 0), so the
// same topology, addresses, routes, and RNG streams come out for every S.
// Each cluster owns the /15 prefix 10.128+(c>>7).x.x — the core routes one
// aligned prefix per cluster instead of one /32 per device, which is what
// keeps its table (and route-cache pressure) constant as the fleet grows.
//
// Traffic is open-loop per device, driven entirely by per-device RNG
// streams forked as fork_stream("dev-up"/"dev-gossip", global_id):
// upstream datagrams to the tserver (echoed back) and gossip to a
// same-cluster peer. Because no send depends on an arrival, per-device
// send logs are invariant across shard counts; receive-side effects are
// validated through commutative digests (per-packet FNV folded with a
// wrapping sum, excluding timestamps and uids, which legitimately differ
// across shard layouts when same-nanosecond events interleave).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/shard_ids.hpp"
#include "core/shard_sim.hpp"
#include "obs/timeseries.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::core {

/// Closed tserver UDP port the flood devices blast: no socket, no echo —
/// the flood is pure open-loop upstream volume, so per-device send logs
/// (and captured egress) stay invariant across shard counts.
inline constexpr std::uint16_t kShardFloodPort = 9;

struct ShardWorkloadConfig {
  std::size_t device_count = 64;
  std::size_t cluster_count = 8;  // fixed across shard counts; >= 1
  std::size_t shard_count = 1;
  std::uint64_t seed = 1;
  util::SimTime duration = util::SimTime::millis(600);
  /// Senders stop this long before `duration` so every packet (and its
  /// echo) drains: full-drain runs make per-link conservation and channel
  /// shipped == drained exactly checkable.
  util::SimTime drain_margin = util::SimTime::millis(150);
  double upstream_pps = 40.0;  // per device, open-loop
  double gossip_pps = 25.0;    // per device, to a same-cluster peer
  /// Per-direction channel ring size. The fuzz suite pins tiny values to
  /// force the mutex overflow path under real traffic.
  std::size_t channel_capacity = 4096;
  net::LinkConfig access_link{.rate_bps = 50e6,
                              .delay = util::SimTime::micros(200),
                              .queue_bytes = 256 * 1024};
  /// Trunk (edge <-> core) links become the cross-shard links; their delay
  /// is the lookahead, and their queues are sized so convergence traffic
  /// never drops (drop choice among same-ns packets is order-dependent).
  net::LinkConfig trunk_link{.rate_bps = 1e9,
                             .delay = util::SimTime::millis(2),
                             .queue_bytes = 4 * 1024 * 1024};
  net::LinkConfig uplink{.rate_bps = 1e9,
                         .delay = util::SimTime::micros(500),
                         .queue_bytes = 4 * 1024 * 1024};

  // --- attack traffic -------------------------------------------------------
  /// The first N devices additionally flood kShardFloodPort on the tserver
  /// with kMiraiUdpFlood-origin datagrams (open-loop, per-device
  /// "dev-flood" RNG streams) — ground-truth-labelled rows that make the
  /// detection pipeline's verdicts and mitigation ladder non-trivial.
  std::size_t flood_device_count = 0;
  double flood_pps = 400.0;  // per flood device
  /// Flood devices stay silent until this instant (zero = flood from the
  /// start, the historical behaviour). A positive start gives telemetry
  /// runs a benign warmup phase: the detection-lag SLO must stay quiet
  /// before the pulse and fire during it.
  util::SimTime flood_start;

  // --- detection ------------------------------------------------------------
  /// Deploys a ShardIdsPipeline: per-cluster device-egress taps, per-edge
  /// EdgeFilters, windowed scoring and mitigation at the sync hook.
  bool ids_enabled = false;
  ShardIdsConfig ids;
  /// Model scoring the merged windows; null = the built-in
  /// FloodPortDetector (flags rows aimed at kShardFloodPort).
  const ml::Classifier* ids_model = nullptr;

  // --- live telemetry -------------------------------------------------------
  /// Streams per-tick time series through a second fleet sync hook
  /// (registered after the IDS hook, so at shared boundaries the window
  /// closes before it is sampled). kSim series are byte-identical across
  /// shard counts for a fixed seed; kWall series carry the shard-health
  /// profile (barrier stall, channel backlog, load imbalance).
  bool telemetry = false;
  obs::TelemetryConfig telemetry_cfg;
  /// Non-empty: stream incremental "ddoshield-timeseries-v1" ndjson here.
  std::string timeseries_path;
  /// Evaluate the default SLO watchdog rules at every telemetry tick:
  /// detection-lag p99 (> half a window), window-close p99 wall time, and
  /// cross-shard channel overflow.
  bool slo = false;
};

struct ShardWorkloadResult {
  // Shard-count-invariant equivalence surface ------------------------------
  std::uint64_t digest_tserver = 0;  // commutative FNV over tserver receives
  std::uint64_t digest_devices = 0;  // commutative FNV over device receives
  std::uint64_t tserver_rx_packets = 0;
  std::uint64_t device_rx_packets = 0;
  std::uint64_t upstream_sent = 0;
  std::uint64_t gossip_sent = 0;
  std::uint64_t flood_sent = 0;
  /// Canonical per-device send log: devices in global-id order, each
  /// device's upstream lines then gossip then flood lines, time-ordered.
  /// Byte-identical across shard counts (sends are open-loop).
  std::string action_log;

  // IDS surface (ids_enabled only): shard-count- and mode-invariant -------
  std::uint64_t ids_rows = 0;
  std::uint64_t ids_truth = 0;
  std::uint64_t ids_predicted = 0;
  std::uint64_t ids_windows = 0;
  std::uint64_t ids_row_digest = 0;      // FNV fold of per-tap row FNVs, tap order
  std::uint64_t ids_verdict_digest = 0;  // FNV over verdicts, emit order
  std::string ids_action_log;            // VerdictPolicy log, joined lines
  // IDS perf + enforcement effects (never part of the equality surface) ---
  std::vector<std::int64_t> ids_close_wall_ns;  // wall ns per window close
  std::uint64_t acl_dropped = 0;        // summed over edge ingress filters
  std::uint64_t ratelimit_dropped = 0;
  /// Rules (ACLs + rate limits) installed when the run ends: summed over
  /// the edge filters, and as the policy counts its enforced sources.
  std::size_t edge_rules = 0;
  std::size_t policy_rules = 0;

  // Invariants --------------------------------------------------------------
  bool conservation_ok = false;
  std::string conservation_error;  // first violated per-link identity

  // Telemetry surface (telemetry only) --------------------------------------
  std::uint64_t telemetry_ticks = 0;
  std::size_t slo_alerts = 0;       // total watchdog alerts fired
  std::size_t slo_fatal = 0;        // fatal-severity subset
  std::string slo_alert_log;        // one SloAlert line per alert, joined
  std::string health_report;        // TelemetryCollector::health_report()

  // Run shape (per shard count, for reporting) ------------------------------
  std::uint64_t events_total = 0;
  std::uint64_t windows = 0;
  ShardChannelStats channel_stats;
};

/// Builds the clustered topology on a fresh ShardedSim, drives the
/// open-loop traffic to full drain, and returns the equivalence surface.
ShardWorkloadResult run_shard_workload(const ShardWorkloadConfig& config);

/// FNV-1a over the shard-invariant packet identity (addresses, ports,
/// payload size, origin) — no timestamps, no uids. Folded with wrapping
/// addition by the digest accumulators, so accumulation order is free.
std::uint64_t shard_packet_digest(const net::Packet& pkt);

}  // namespace ddoshield::core

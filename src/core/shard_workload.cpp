#include "core/shard_workload.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/udp.hpp"
#include "obs/watchdog.hpp"
#include "util/rng.hpp"

namespace ddoshield::core {

namespace {

constexpr std::uint16_t kTServerPort = 9999;
constexpr std::uint16_t kUpstreamPort = 5000;  // device-side; receives echoes
constexpr std::uint16_t kGossipPort = 7777;

// Cluster c owns the /15 prefix (10<<24)|(1<<23)|(c<<17): bit 23 marks
// "fleet side" (never collides with the 10.0.x.x core/tserver addresses),
// bits 17..22 carry the cluster id, and 17 host bits fit ~131k devices per
// cluster. Every address is a pure function of (cluster, host), so the
// address plan cannot depend on the shard count.
constexpr std::uint32_t kFleetBase = (10u << 24) | (1u << 23);
constexpr int kClusterPrefixLen = 15;
constexpr std::size_t kMaxClusters = 64;  // bits 17..22

net::Ipv4Address cluster_prefix(std::size_t c) {
  return net::Ipv4Address{kFleetBase | (static_cast<std::uint32_t>(c) << 17)};
}
net::Ipv4Address edge_address(std::size_t c) {
  return net::Ipv4Address{cluster_prefix(c).bits() | 1u};
}
net::Ipv4Address device_address(std::size_t c, std::size_t idx_in_cluster) {
  return net::Ipv4Address{cluster_prefix(c).bits() |
                          (static_cast<std::uint32_t>(idx_in_cluster) + 2u)};
}

struct DeviceState {
  std::size_t id = 0;
  std::size_t cluster = 0;
  std::size_t index_in_cluster = 0;
  net::Node* node = nullptr;
  std::shared_ptr<net::UdpSocket> sock_up;
  std::shared_ptr<net::UdpSocket> sock_gossip;
  // Independent streams per timer: the timers' relative execution order on
  // same-nanosecond ticks is layout-dependent, so they must not share
  // draws.
  util::Rng rng_up{0};
  util::Rng rng_gossip{0};
  util::Rng rng_flood{0};
  std::string up_log;
  std::string gossip_log;
  std::string flood_log;
  std::uint64_t digest = 0;  // folded over both sockets' receives
  std::uint64_t rx = 0;
  std::uint64_t upstream_sent = 0;
  std::uint64_t gossip_sent = 0;
  std::uint64_t flood_sent = 0;
  bool floods = false;
  // Shared immutable context.
  net::Ipv4Address tserver_addr;
  const std::vector<net::Ipv4Address>* cluster_peers = nullptr;
  util::SimTime stop_at;
  util::SimTime flood_start;
  double upstream_pps = 0.0;
  double gossip_pps = 0.0;
  double flood_pps = 0.0;
};

util::SimTime draw_interval(util::Rng& rng, double pps) {
  const double seconds = std::max(1e-6, rng.exponential(pps));
  return util::SimTime::from_seconds(seconds);
}

void append_line(std::string& log, const char* kind, std::size_t id,
                 std::int64_t t_ns, std::uint32_t bytes, std::size_t extra) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s dev=%zu t=%lld bytes=%u x=%zu\n", kind, id,
                static_cast<long long>(t_ns), bytes, extra);
  log += buf;
}

void schedule_upstream(DeviceState* dev) {
  net::Simulator& sim = dev->node->simulator();
  const util::SimTime next = sim.now() + draw_interval(dev->rng_up, dev->upstream_pps);
  if (next > dev->stop_at) return;
  sim.post_at(next, [dev] {
    const auto payload =
        static_cast<std::uint32_t>(64 + dev->rng_up.uniform_u64(192));
    dev->sock_up->send_to({dev->tserver_addr, kTServerPort}, payload,
                          net::TrafficOrigin::kHttp);
    ++dev->upstream_sent;
    append_line(dev->up_log, "up", dev->id, dev->node->simulator().now().ns(),
                payload, 0);
    schedule_upstream(dev);
  });
}

void schedule_gossip(DeviceState* dev) {
  if (dev->cluster_peers->size() < 2) return;  // nobody to gossip with
  net::Simulator& sim = dev->node->simulator();
  const util::SimTime next = sim.now() + draw_interval(dev->rng_gossip, dev->gossip_pps);
  if (next > dev->stop_at) return;
  sim.post_at(next, [dev] {
    const std::size_t n = dev->cluster_peers->size();
    std::size_t peer = static_cast<std::size_t>(dev->rng_gossip.uniform_u64(n - 1));
    if (peer >= dev->index_in_cluster) ++peer;  // skip self, stay uniform
    const auto payload =
        static_cast<std::uint32_t>(48 + dev->rng_gossip.uniform_u64(128));
    dev->sock_gossip->send_to({(*dev->cluster_peers)[peer], kGossipPort}, payload,
                              net::TrafficOrigin::kHttp);
    ++dev->gossip_sent;
    append_line(dev->gossip_log, "go", dev->id, dev->node->simulator().now().ns(),
                payload, peer);
    schedule_gossip(dev);
  });
}

// Open-loop flood at kShardFloodPort: the port is closed on the tserver
// (no socket, no echo), so the attack adds pure upstream volume and the
// device's send log stays a function of the seed alone.
void schedule_flood(DeviceState* dev) {
  net::Simulator& sim = dev->node->simulator();
  // A delayed flood_start shifts the whole open-loop schedule: the first
  // inter-arrival draw is taken from the start instant, not t=0, so the
  // per-device stream is unchanged apart from the offset. Default zero
  // reproduces the historical flood-from-the-start schedules exactly.
  util::SimTime base = sim.now();
  if (base < dev->flood_start) base = dev->flood_start;
  const util::SimTime next = base + draw_interval(dev->rng_flood, dev->flood_pps);
  if (next > dev->stop_at) return;
  sim.post_at(next, [dev] {
    const auto payload =
        static_cast<std::uint32_t>(512 + dev->rng_flood.uniform_u64(512));
    dev->sock_up->send_to({dev->tserver_addr, kShardFloodPort}, payload,
                          net::TrafficOrigin::kMiraiUdpFlood);
    ++dev->flood_sent;
    append_line(dev->flood_log, "fl", dev->id, dev->node->simulator().now().ns(),
                payload, 0);
    schedule_flood(dev);
  });
}

}  // namespace

std::uint64_t shard_packet_digest(const net::Packet& pkt) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(pkt.src.bits());
  mix(pkt.dst.bits());
  mix((static_cast<std::uint64_t>(pkt.src_port) << 16) | pkt.dst_port);
  mix(pkt.payload_bytes);
  mix(static_cast<std::uint64_t>(pkt.origin));
  return h;
}

ShardWorkloadResult run_shard_workload(const ShardWorkloadConfig& config) {
  if (config.cluster_count == 0 || config.cluster_count > kMaxClusters)
    throw std::invalid_argument("shard workload: cluster_count must be in [1, 64]");
  if (config.drain_margin >= config.duration)
    throw std::invalid_argument("shard workload: drain_margin must be < duration");

  const std::size_t C = config.cluster_count;
  const std::size_t S = config.shard_count == 0 ? 1 : config.shard_count;
  const auto shard_of_cluster = [&](std::size_t c) { return c % S; };

  ShardSimConfig sim_cfg;
  sim_cfg.shard_count = S;
  sim_cfg.channel_capacity = config.channel_capacity;
  ShardedSim sim{sim_cfg};

  // --- topology (identical for every shard count) --------------------------
  net::Node& core = sim.add_node(0, "core", net::Ipv4Address{10, 0, 0, 1});
  net::Node& tserver = sim.add_node(0, "tserver", net::Ipv4Address{10, 0, 1, 1});
  core.set_forwarding(true);

  struct LinkRec {
    net::Link* link;
    net::Node* a;
    net::Node* b;
  };
  std::vector<LinkRec> link_recs;

  const std::size_t core_uplink_if = core.interface_count();
  const std::size_t tserver_if = tserver.interface_count();
  net::Link& uplink = sim.connect(core, tserver, config.uplink);
  link_recs.push_back({&uplink, &core, &tserver});
  core.add_route(tserver.address(), 32, core_uplink_if);
  tserver.set_default_route(tserver_if);

  std::vector<net::Node*> edges(C, nullptr);
  std::vector<std::vector<net::Ipv4Address>> cluster_addrs(C);
  for (std::size_t c = 0; c < C; ++c) {
    char name[32];
    std::snprintf(name, sizeof name, "edge_%zu", c);
    net::Node& edge = sim.add_node(shard_of_cluster(c), name, edge_address(c));
    edge.set_forwarding(true);
    edges[c] = &edge;
    const std::size_t core_if = core.interface_count();
    const std::size_t edge_trunk_if = edge.interface_count();
    net::Link& trunk = sim.connect(core, edge, config.trunk_link);
    link_recs.push_back({&trunk, &core, &edge});
    // Shard-aware routing: one aligned prefix per cluster at the core —
    // the table stays O(clusters) no matter how many devices exist.
    core.add_route(cluster_prefix(c), kClusterPrefixLen, core_if);
    edge.set_default_route(edge_trunk_if);
  }

  // --- detection pipeline (shard-count invariant by construction) ----------
  // One tap per cluster in cluster order (the pinned merge order), one
  // EdgeFilter per cluster edge (ingress enforcement at the aggregation
  // point, like the flat testbed's router filter).
  FloodPortDetector builtin_model{kShardFloodPort};
  const ml::Classifier* model =
      config.ids_model != nullptr ? config.ids_model : &builtin_model;
  std::unique_ptr<ShardIdsPipeline> pipeline;
  std::vector<capture::PacketTap*> cluster_taps(C, nullptr);
  std::vector<std::unique_ptr<mitigate::EdgeFilter>> edge_filters;
  if (config.ids_enabled) {
    ShardIdsConfig ids_cfg = config.ids;
    ids_cfg.protected_addr = tserver.address().bits();
    pipeline = std::make_unique<ShardIdsPipeline>(sim, *model, ids_cfg);
    for (std::size_t c = 0; c < C; ++c)
      cluster_taps[c] = &pipeline->add_tap(shard_of_cluster(c));
    if (ids_cfg.mitigation) {
      edge_filters.reserve(C);
      for (std::size_t c = 0; c < C; ++c) {
        edge_filters.push_back(std::make_unique<mitigate::EdgeFilter>(
            sim.simulator(shard_of_cluster(c)), tserver.address()));
        edges[c]->set_ingress_filter(edge_filters.back().get());
        pipeline->add_filter(edge_filters.back().get(), cluster_prefix(c), kClusterPrefixLen);
      }
    }
  }

  util::Rng master{config.seed};
  std::vector<std::unique_ptr<DeviceState>> devices;
  devices.reserve(config.device_count);
  const util::SimTime stop_at = config.duration - config.drain_margin;

  for (std::size_t i = 0; i < config.device_count; ++i) {
    const std::size_t c = i % C;
    const std::size_t idx = i / C;
    cluster_addrs[c].push_back(device_address(c, idx));
  }

  for (std::size_t i = 0; i < config.device_count; ++i) {
    const std::size_t c = i % C;
    const std::size_t idx = i / C;
    char name[32];
    std::snprintf(name, sizeof name, "dev_%zu", i);
    net::Node& node =
        sim.add_node(shard_of_cluster(c), name, device_address(c, idx));
    const std::size_t edge_if = edges[c]->interface_count();
    const std::size_t dev_if = node.interface_count();
    net::Link& access = sim.connect(*edges[c], node, config.access_link);
    link_recs.push_back({&access, edges[c], &node});
    edges[c]->add_route(node.address(), 32, edge_if);
    node.set_default_route(dev_if);
    // Device egress only: the cluster tap observes every send this device
    // makes, independent of which shard executes it.
    if (cluster_taps[c] != nullptr) cluster_taps[c]->attach_to(node);

    auto dev = std::make_unique<DeviceState>();
    dev->id = i;
    dev->cluster = c;
    dev->index_in_cluster = idx;
    dev->node = &node;
    dev->rng_up = master.fork_stream("dev-up", i);
    dev->rng_gossip = master.fork_stream("dev-gossip", i);
    dev->rng_flood = master.fork_stream("dev-flood", i);
    dev->floods = i < config.flood_device_count;
    dev->tserver_addr = tserver.address();
    dev->cluster_peers = &cluster_addrs[c];
    dev->stop_at = stop_at;
    dev->flood_start = config.flood_start;
    dev->upstream_pps = config.upstream_pps;
    dev->gossip_pps = config.gossip_pps;
    dev->flood_pps = config.flood_pps;
    dev->sock_up = node.udp().open(kUpstreamPort);
    dev->sock_gossip = node.udp().open(kGossipPort);
    DeviceState* raw = dev.get();
    dev->sock_up->set_receive_callback([raw](const net::Packet& pkt) {
      raw->digest += shard_packet_digest(pkt);
      ++raw->rx;
    });
    dev->sock_gossip->set_receive_callback([raw](const net::Packet& pkt) {
      raw->digest += shard_packet_digest(pkt);
      ++raw->rx;
    });
    devices.push_back(std::move(dev));
  }

  // tserver echo service: digest every arrival, reflect the payload back.
  struct TServerState {
    std::shared_ptr<net::UdpSocket> sock;
    std::uint64_t digest = 0;
    std::uint64_t rx = 0;
  } ts;
  ts.sock = tserver.udp().open(kTServerPort);
  ts.sock->set_receive_callback([&ts](const net::Packet& pkt) {
    ts.digest += shard_packet_digest(pkt);
    ++ts.rx;
    ts.sock->send_to({pkt.src, pkt.src_port}, pkt.payload_bytes,
                     net::TrafficOrigin::kHttp);
  });

  for (auto& dev : devices) {
    schedule_upstream(dev.get());
    schedule_gossip(dev.get());
    if (dev->floods) schedule_flood(dev.get());
  }

  if (pipeline) pipeline->arm();

  // --- live telemetry -------------------------------------------------------
  // A second sync hook (after the IDS hook, so shared boundaries close the
  // window before sampling it) folds every shard domain into the
  // time-series store each interval. Sim-domain series are
  // functions of the seed alone; wall-domain series carry the shard-health
  // profile and are excluded from the cross-layout equality contract.
  std::unique_ptr<obs::TelemetryCollector> telemetry;
  std::unique_ptr<obs::SloWatchdog> watchdog;
  if (config.telemetry) {
    obs::TelemetryConfig tcfg = config.telemetry_cfg;
    telemetry =
        std::make_unique<obs::TelemetryCollector>(tcfg, obs::MetricsRegistry::global());
    // Every sampled instrument lives in a (fresh) shard domain, so fold
    // only those: the process globals would contribute stale totals from
    // earlier runs in this process.
    for (std::size_t s = 0; s < sim.shard_count(); ++s)
      telemetry->add_source(&sim.domain(s).registry);

    telemetry->add_counter("capture.tap.packets", obs::SeriesDomain::kSim);
    telemetry->add_counter("capture.batch.records", obs::SeriesDomain::kSim);
    if (config.ids_enabled) {
      telemetry->add_counter("ids.windows_closed", obs::SeriesDomain::kSim);
      telemetry->add_counter("ids.rows", obs::SeriesDomain::kSim);
      telemetry->add_gauge("ids.window_rows", obs::SeriesDomain::kSim);
      telemetry->add_gauge("ids.detect_lag_p99_ns", obs::SeriesDomain::kSim);
      telemetry->add_quantile("ids.detect_lag_ns", 0.99, obs::SeriesDomain::kSim);
      // Wall-clock close cost: layout-dependent by nature.
      telemetry->add_quantile("ids.window_close_ns", 0.99, obs::SeriesDomain::kWall);
    }

    // Shard-health profiler probes (all wall/layout-dependent).
    ShardedSim* simp = &sim;
    telemetry->add_probe("shard.barrier_stall_ns", obs::SeriesDomain::kWall, [simp] {
      double total = 0.0;
      for (std::size_t s = 0; s < simp->shard_count(); ++s)
        total += static_cast<double>(simp->barrier_stall_ns(s));
      return total;
    });
    telemetry->add_probe("shard.channel.backlog", obs::SeriesDomain::kWall, [simp] {
      const ShardChannelStats cs = simp->channel_stats();
      return static_cast<double>(cs.shipped - cs.drained);
    });
    telemetry->add_probe("shard.channel.overflowed", obs::SeriesDomain::kWall, [simp] {
      return static_cast<double>(simp->channel_stats().overflowed);
    });
    telemetry->add_probe("shard.load_imbalance", obs::SeriesDomain::kWall,
                         [simp] { return simp->load_imbalance(); });
    telemetry->add_probe("shard.lookahead_slack_ns", obs::SeriesDomain::kWall, [simp] {
      // How far ahead of the barrier each shard could run: min over shards
      // of (earliest pending event - now). Small slack = tightly coupled.
      double slack = 0.0;
      for (std::size_t s = 0; s < simp->shard_count(); ++s) {
        net::Simulator& ssim = simp->simulator(s);
        const double d =
            static_cast<double>((ssim.next_event_at() - ssim.now()).ns());
        const double clamped = d < 0.0 ? 0.0 : d;
        if (s == 0 || clamped < slack) slack = clamped;
      }
      return slack;
    });

    if (config.slo) {
      watchdog = std::make_unique<obs::SloWatchdog>(obs::MetricsRegistry::global());
      const double window_ns = static_cast<double>(config.ids.window.ns());
      if (config.ids_enabled) {
        // An attack packet should wait at most ~half a window for its
        // verdict; a benign warmup has no malicious rows, so the gauge
        // stays 0 and the rule stays quiet.
        watchdog->add_rule({.name = "detect-lag-p99",
                            .series = "ids.detect_lag_p99_ns",
                            .op = obs::SloOp::kAbove,
                            .threshold = 0.5 * window_ns});
        watchdog->add_rule({.name = "window-close-p99",
                            .series = "ids.window_close_ns.p99",
                            .op = obs::SloOp::kAbove,
                            .threshold = 50e6});  // 50 ms of wall per close
      }
      watchdog->add_rule({.name = "channel-overflow",
                          .series = "shard.channel.overflowed",
                          .op = obs::SloOp::kAbove,
                          .threshold = 0.0});
      telemetry->set_watchdog(watchdog.get());
    }

    if (!config.timeseries_path.empty() &&
        !telemetry->open_ndjson(config.timeseries_path))
      throw std::runtime_error("shard workload: cannot open timeseries path " +
                               config.timeseries_path);

    obs::TelemetryCollector* collector = telemetry.get();
    sim.add_sync_hook(tcfg.interval,
                      [collector](util::SimTime t) { collector->tick(t); });
  }

  sim.run_until(config.duration);
  if (pipeline) pipeline->flush(config.duration);
  sim.merge_metrics();

  // --- equivalence surface -------------------------------------------------
  ShardWorkloadResult result;
  result.digest_tserver = ts.digest;
  result.tserver_rx_packets = ts.rx;
  for (const auto& dev : devices) {
    result.digest_devices += dev->digest;
    result.device_rx_packets += dev->rx;
    result.upstream_sent += dev->upstream_sent;
    result.gossip_sent += dev->gossip_sent;
    result.flood_sent += dev->flood_sent;
  }
  for (const auto& dev : devices) {
    result.action_log += dev->up_log;
    result.action_log += dev->gossip_log;
    result.action_log += dev->flood_log;
  }

  if (pipeline) {
    result.ids_rows = pipeline->rows_total();
    result.ids_truth = pipeline->truth_total();
    result.ids_predicted = pipeline->predicted_total();
    result.ids_windows = pipeline->windows().size();
    result.ids_row_digest = pipeline->row_digest();
    result.ids_verdict_digest = pipeline->verdict_digest();
    result.ids_action_log = pipeline->action_log().joined();
    result.ids_close_wall_ns = pipeline->close_wall_ns();
    for (const auto& edge : edges) {
      result.acl_dropped += edge->stats().dropped_acl;
      result.ratelimit_dropped += edge->stats().dropped_ratelimit;
    }
    for (const auto& filter : edge_filters)
      result.edge_rules += filter->acl_rules() + filter->limit_rules();
    result.policy_rules =
        pipeline->policy().active_acls() + pipeline->policy().active_limits();
  }

  if (telemetry) {
    result.telemetry_ticks = telemetry->ticks();
    result.health_report = telemetry->health_report();
    if (watchdog) {
      result.slo_alerts = watchdog->alerts().size();
      result.slo_fatal = watchdog->fatal_alerts();
      result.slo_alert_log = watchdog->joined_log();
    }
  }

  // --- invariants: the run drained fully, so conservation is exact ---------
  result.conservation_ok = true;
  const auto check_direction = [&](const LinkRec& rec, const net::Node& from) {
    const net::LinkDirectionStats& s = rec.link->stats_from(from);
    if (s.tx_packets != s.delivered_packets + s.lost_in_flight_packets) {
      result.conservation_ok = false;
      if (result.conservation_error.empty()) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s: tx=%llu != delivered=%llu + lost=%llu",
                      from.name().c_str(),
                      static_cast<unsigned long long>(s.tx_packets),
                      static_cast<unsigned long long>(s.delivered_packets),
                      static_cast<unsigned long long>(s.lost_in_flight_packets));
        result.conservation_error = buf;
      }
    }
  };
  for (const LinkRec& rec : link_recs) {
    check_direction(rec, *rec.a);
    check_direction(rec, *rec.b);
  }
  result.channel_stats = sim.channel_stats();
  if (result.channel_stats.shipped != result.channel_stats.drained) {
    result.conservation_ok = false;
    if (result.conservation_error.empty())
      result.conservation_error = "cross-shard channels did not drain fully";
  }

  for (std::size_t s = 0; s < sim.shard_count(); ++s)
    result.events_total += sim.simulator(s).events_executed();
  result.windows = sim.windows();
  return result;
}

}  // namespace ddoshield::core

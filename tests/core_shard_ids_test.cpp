// Tests for the sharded detection pipeline: ShardedSim sync-hook
// mechanics, cross-shard-count byte-equality of the merged windows
// (rows, verdicts, ActionLog), invariance under enforcement, and
// mitigation actually engaging at the edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_ids.hpp"
#include "core/shard_sim.hpp"
#include "core/shard_workload.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::core {
namespace {

using net::Ipv4Address;
using net::LinkConfig;
using util::SimTime;

ShardSimConfig shard_cfg(std::size_t shards) {
  ShardSimConfig cfg;
  cfg.shard_count = shards;
  return cfg;
}

// --------------------------------------------------------------------------
// ShardedSim sync hook
// --------------------------------------------------------------------------

TEST(SyncHookTest, RejectsNonPositivePeriod) {
  ShardedSim sim{shard_cfg(1)};
  EXPECT_THROW(sim.add_sync_hook(SimTime{}, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(sim.add_sync_hook(SimTime::millis(-10), [](SimTime) {}), std::invalid_argument);
  EXPECT_EQ(sim.sync_hook_count(), 0u);
}

TEST(SyncHookTest, SingleShardFiresAtEveryMultiple) {
  ShardedSim sim{shard_cfg(1)};
  sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  std::vector<std::int64_t> fired;
  sim.add_sync_hook(SimTime::millis(10),
                    [&fired](SimTime t) { fired.push_back(t.ns()); });
  sim.run_until(SimTime::millis(35));
  const std::vector<std::int64_t> expect{SimTime::millis(10).ns(),
                                         SimTime::millis(20).ns(),
                                         SimTime::millis(30).ns()};
  EXPECT_EQ(fired, expect);
  // Resuming keeps the absolute grid: next multiple is 40, not 45.
  sim.run_until(SimTime::millis(41));
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired.back(), SimTime::millis(40).ns());
}

TEST(SyncHookTest, AlignedEndFiresExactlyOnce) {
  ShardedSim sim{shard_cfg(1)};
  sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  int fired = 0;
  sim.add_sync_hook(SimTime::millis(10), [&fired](SimTime) { ++fired; });
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(fired, 1);
  sim.run_until(SimTime::millis(20));
  EXPECT_EQ(fired, 2);
}

TEST(SyncHookTest, BoundaryEventsExecuteBeforeTheHook) {
  ShardedSim sim{shard_cfg(1)};
  sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  std::vector<std::string> trace;
  sim.simulator(0).post_at(SimTime::millis(10),
                           [&trace] { trace.push_back("event@10ms"); });
  sim.add_sync_hook(SimTime::millis(10), [&trace](SimTime t) {
    trace.push_back("hook@" + std::to_string(t.ns() / 1000000) + "ms");
  });
  sim.run_until(SimTime::millis(15));
  const std::vector<std::string> expect{"event@10ms", "hook@10ms"};
  EXPECT_EQ(trace, expect);
}

TEST(SyncHookTest, MultiShardFiresOnceAtEveryMultipleWithFleetParked) {
  ShardedSim sim{shard_cfg(3)};
  auto& a = sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  auto& b = sim.add_node(1, "b", Ipv4Address{10, 0, 0, 2});
  auto& c = sim.add_node(2, "c", Ipv4Address{10, 0, 0, 3});
  // Lookahead 3ms, hook 10ms: boundaries never align with the window grid,
  // so the sub-step clamping path is exercised on both sides.
  sim.connect(a, b, LinkConfig{.delay = SimTime::millis(3)});
  sim.connect(a, c, LinkConfig{.delay = SimTime::millis(3)});
  std::vector<std::int64_t> fired;
  std::vector<std::int64_t> clocks_at_hook;
  sim.add_sync_hook(SimTime::millis(10), [&](SimTime t) {
    fired.push_back(t.ns());
    // Every shard is parked at exactly the boundary.
    for (std::size_t s = 0; s < 3; ++s)
      clocks_at_hook.push_back(sim.simulator(s).now().ns());
  });
  sim.run_until(SimTime::millis(25));
  const std::vector<std::int64_t> expect{SimTime::millis(10).ns(),
                                         SimTime::millis(20).ns()};
  EXPECT_EQ(fired, expect);
  ASSERT_EQ(clocks_at_hook.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(clocks_at_hook[i], fired[0]);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_EQ(clocks_at_hook[i], fired[1]);
}

TEST(SyncHookTest, HookExceptionSurfacesFromRunUntil) {
  ShardedSim sim{shard_cfg(2)};
  auto& a = sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  auto& b = sim.add_node(1, "b", Ipv4Address{10, 0, 0, 2});
  sim.connect(a, b, LinkConfig{.delay = SimTime::millis(5)});
  sim.add_sync_hook(SimTime::millis(10), [](SimTime) {
    throw std::runtime_error("hook boom");
  });
  EXPECT_THROW(sim.run_until(SimTime::millis(30)), std::runtime_error);
}

// --------------------------------------------------------------------------
// Multiple sync hooks (the telemetry collector rides alongside the IDS)
// --------------------------------------------------------------------------

TEST(SyncHookTest, AddRejectsBadArguments) {
  ShardedSim sim{shard_cfg(1)};
  EXPECT_THROW(sim.add_sync_hook(SimTime::millis(10), nullptr), std::invalid_argument);
  EXPECT_THROW(sim.add_sync_hook(SimTime{}, [](SimTime) {}), std::invalid_argument);
  EXPECT_EQ(sim.sync_hook_count(), 0u);
}

TEST(SyncHookTest, TwoHooksWithDifferentPeriodsEachFireAtTheirMultiples) {
  ShardedSim sim{shard_cfg(1)};
  sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  std::vector<std::int64_t> fast;
  std::vector<std::int64_t> slow;
  sim.add_sync_hook(SimTime::millis(10), [&fast](SimTime t) { fast.push_back(t.ns()); });
  sim.add_sync_hook(SimTime::millis(25), [&slow](SimTime t) { slow.push_back(t.ns()); });
  EXPECT_EQ(sim.sync_hook_count(), 2u);
  sim.run_until(SimTime::millis(55));
  const std::vector<std::int64_t> expect_fast{
      SimTime::millis(10).ns(), SimTime::millis(20).ns(), SimTime::millis(30).ns(),
      SimTime::millis(40).ns(), SimTime::millis(50).ns()};
  const std::vector<std::int64_t> expect_slow{SimTime::millis(25).ns(),
                                              SimTime::millis(50).ns()};
  EXPECT_EQ(fast, expect_fast);
  EXPECT_EQ(slow, expect_slow);
}

TEST(SyncHookTest, SharedBoundaryRunsHooksInRegistrationOrder) {
  // The IDS window hook registers before the telemetry hook, so at a shared
  // boundary the window closes before the collector samples it. This test
  // pins that ordering contract.
  ShardedSim sim{shard_cfg(2)};
  auto& a = sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  auto& b = sim.add_node(1, "b", Ipv4Address{10, 0, 0, 2});
  sim.connect(a, b, LinkConfig{.delay = SimTime::millis(3)});
  std::vector<std::string> trace;
  sim.add_sync_hook(SimTime::millis(10), [&trace](SimTime t) {
    trace.push_back("first@" + std::to_string(t.ns() / 1000000));
  });
  sim.add_sync_hook(SimTime::millis(20), [&trace](SimTime t) {
    trace.push_back("second@" + std::to_string(t.ns() / 1000000));
  });
  sim.run_until(SimTime::millis(20));
  const std::vector<std::string> expect{"first@10", "first@20", "second@20"};
  EXPECT_EQ(trace, expect);
}

TEST(SyncHookTest, MultiShardTwoHooksStayOnTheAbsoluteGrid) {
  ShardedSim sim{shard_cfg(3)};
  auto& a = sim.add_node(0, "a", Ipv4Address{10, 0, 0, 1});
  auto& b = sim.add_node(1, "b", Ipv4Address{10, 0, 0, 2});
  auto& c = sim.add_node(2, "c", Ipv4Address{10, 0, 0, 3});
  sim.connect(a, b, LinkConfig{.delay = SimTime::millis(3)});
  sim.connect(a, c, LinkConfig{.delay = SimTime::millis(3)});
  std::vector<std::int64_t> fired_a;
  std::vector<std::int64_t> fired_b;
  sim.add_sync_hook(SimTime::millis(10), [&](SimTime t) {
    fired_a.push_back(t.ns());
    // Fleet parked at exactly the boundary, same as the single-hook case.
    for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(sim.simulator(s).now().ns(), t.ns());
  });
  sim.add_sync_hook(SimTime::millis(15), [&fired_b](SimTime t) { fired_b.push_back(t.ns()); });
  sim.run_until(SimTime::millis(31));
  const std::vector<std::int64_t> expect_a{SimTime::millis(10).ns(),
                                           SimTime::millis(20).ns(),
                                           SimTime::millis(30).ns()};
  const std::vector<std::int64_t> expect_b{SimTime::millis(15).ns(),
                                           SimTime::millis(30).ns()};
  EXPECT_EQ(fired_a, expect_a);
  EXPECT_EQ(fired_b, expect_b);
}

// --------------------------------------------------------------------------
// ShardedSim::for_each_shard (the per-shard phases of a window close)
// --------------------------------------------------------------------------

// One node per shard, shard 0 linked to every other with a 3 ms delay, so
// a multi-shard run has 3 ms lookahead windows.
void add_star(ShardedSim& sim) {
  auto& hub = sim.add_node(0, "hub", Ipv4Address{10, 0, 0, 1});
  for (std::size_t s = 1; s < sim.shard_count(); ++s) {
    auto& leaf =
        sim.add_node(s, "leaf", Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(s + 1)});
    sim.connect(hub, leaf, LinkConfig{.delay = SimTime::millis(3)});
  }
}

TEST(SyncHookTest, ForEachShardRunsOncePerShardOnItsOwnThread) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedSim sim{shard_cfg(shards)};
    add_star(sim);
    // Each shard's own thread, as seen by an event it executes.
    std::vector<std::thread::id> event_thread(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      sim.simulator(s).post_at(SimTime::millis(1), [&event_thread, s] {
        event_thread[s] = std::this_thread::get_id();
      });
    }
    // Each slot is written only by its own shard's call.
    std::vector<int> calls(shards, 0);
    std::vector<std::thread::id> task_thread(shards);
    std::vector<int> calls_seen_by_hook;
    sim.add_sync_hook(SimTime::millis(10), [&](SimTime) {
      sim.for_each_shard([&](std::size_t s) {
        ++calls[s];
        task_thread[s] = std::this_thread::get_id();
      });
      // Every call has returned by now.
      for (const int c : calls) calls_seen_by_hook.push_back(c);
    });
    sim.run_until(SimTime::millis(30));

    EXPECT_EQ(calls, std::vector<int>(shards, 3));
    EXPECT_EQ(calls_seen_by_hook.size(), 3 * shards);
    for (std::size_t i = 0; i < calls_seen_by_hook.size(); ++i)
      EXPECT_EQ(calls_seen_by_hook[i], static_cast<int>(i / shards) + 1);
    for (std::size_t s = 0; s < shards; ++s) EXPECT_EQ(task_thread[s], event_thread[s]) << s;
    if (shards == 1) {
      EXPECT_EQ(task_thread[0], std::this_thread::get_id());
    }

    // Outside a run: every shard once, in order, on the calling thread.
    std::vector<std::size_t> order;
    std::vector<std::thread::id> threads;
    sim.for_each_shard([&](std::size_t s) {
      order.push_back(s);
      threads.push_back(std::this_thread::get_id());
    });
    std::vector<std::size_t> expect(shards);
    for (std::size_t s = 0; s < shards; ++s) expect[s] = s;
    EXPECT_EQ(order, expect);
    EXPECT_EQ(threads, std::vector<std::thread::id>(shards, std::this_thread::get_id()));
  }
}

TEST(SyncHookTest, ForEachShardTaskExceptionStopsTheHookAndSurfaces) {
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t thrower : {std::size_t{0}, shards - 1}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " thrower=" + std::to_string(thrower));
      ShardedSim sim{shard_cfg(shards)};
      add_star(sim);
      std::vector<int> calls(shards, 0);
      int hook_finished = 0;
      sim.add_sync_hook(SimTime::millis(10), [&](SimTime) {
        sim.for_each_shard([&](std::size_t s) {
          ++calls[s];
          if (s == thrower) throw std::runtime_error("task boom");
        });
        ++hook_finished;
      });
      try {
        sim.run_until(SimTime::millis(30));
        ADD_FAILURE() << "run_until did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task boom");
      }
      EXPECT_EQ(hook_finished, 0);
      // The failing boundary still ran every shard's call exactly once, and
      // the fleet skipped every later hook.
      EXPECT_EQ(calls, std::vector<int>(shards, 1));
    }
  }
}

TEST(SyncHookTest, ForEachShardRejectsCallsFromATask) {
  ShardedSim sim{shard_cfg(2)};
  add_star(sim);
  sim.add_sync_hook(SimTime::millis(10), [&sim](SimTime) {
    sim.for_each_shard([&sim](std::size_t) { sim.for_each_shard([](std::size_t) {}); });
  });
  EXPECT_THROW(sim.run_until(SimTime::millis(20)), std::logic_error);
}

TEST(SyncHookTest, ForEachShardLeavesTheWindowCountAlone) {
  // 3 ms lookahead over (0, 30 ms]: ten synchronisation windows, whether
  // the hook fans work out to the shards or not.
  for (const bool fan_out : {false, true}) {
    ShardedSim sim{shard_cfg(4)};
    add_star(sim);
    sim.add_sync_hook(SimTime::millis(10), [&sim, fan_out](SimTime) {
      if (fan_out) sim.for_each_shard([](std::size_t) {});
    });
    sim.run_until(SimTime::millis(30));
    EXPECT_EQ(sim.windows(), 10u) << "fan_out=" << fan_out;
  }
}

// --------------------------------------------------------------------------
// Sharded IDS pipeline on the clustered workload
// --------------------------------------------------------------------------

ShardWorkloadConfig ids_workload(std::size_t shards, std::uint64_t seed) {
  ShardWorkloadConfig cfg;
  cfg.device_count = 24;
  cfg.cluster_count = 6;
  cfg.shard_count = shards;
  cfg.seed = seed;
  cfg.duration = SimTime::millis(450);
  cfg.drain_margin = SimTime::millis(120);
  cfg.flood_device_count = 3;
  cfg.flood_pps = 600.0;
  cfg.ids_enabled = true;
  // ~60 flood rows per device per 100ms window; default min_packets = 64
  // would sit just above that and the ladder would never move.
  cfg.ids.mitigation_config.min_packets = 16;
  return cfg;
}

void expect_ids_surface_eq(const ShardWorkloadResult& a, const ShardWorkloadResult& b,
                           const char* what) {
  EXPECT_EQ(a.ids_rows, b.ids_rows) << what;
  EXPECT_EQ(a.ids_truth, b.ids_truth) << what;
  EXPECT_EQ(a.ids_predicted, b.ids_predicted) << what;
  EXPECT_EQ(a.ids_windows, b.ids_windows) << what;
  EXPECT_EQ(a.ids_row_digest, b.ids_row_digest) << what;
  EXPECT_EQ(a.ids_verdict_digest, b.ids_verdict_digest) << what;
  EXPECT_EQ(a.ids_action_log, b.ids_action_log) << what;
}

TEST(ShardIdsTest, DetectionRunsAndFlagsExactlyTheFloodRows) {
  const ShardWorkloadResult r = run_shard_workload(ids_workload(2, 42));
  EXPECT_TRUE(r.conservation_ok) << r.conservation_error;
  EXPECT_GT(r.flood_sent, 0u);
  EXPECT_GT(r.ids_windows, 0u);
  // Egress taps see every device send exactly once; the flood rows are the
  // malicious ground truth, and the port detector flags exactly those.
  EXPECT_EQ(r.ids_rows, r.upstream_sent + r.gossip_sent + r.flood_sent);
  EXPECT_EQ(r.ids_truth, r.flood_sent);
  EXPECT_EQ(r.ids_predicted, r.ids_truth);
  EXPECT_EQ(r.ids_close_wall_ns.size(), r.ids_windows);
}

TEST(ShardIdsTest, MitigationEngagesAtTheEdges) {
  const ShardWorkloadResult r = run_shard_workload(ids_workload(2, 42));
  EXPECT_NE(r.ids_action_log.find("ratelimit_install"), std::string::npos);
  EXPECT_NE(r.ids_action_log.find("acl_install"), std::string::npos);
  EXPECT_GT(r.acl_dropped + r.ratelimit_dropped, 0u);
}

TEST(ShardIdsTest, EachSourceRuleLivesOnlyOnItsOwnEdge) {
  // A source traverses only its own cluster's edge, so the edges together
  // hold exactly one rule per source the policy enforces against.
  const ShardWorkloadResult r = run_shard_workload(ids_workload(2, 42));
  EXPECT_GT(r.policy_rules, 0u);
  EXPECT_EQ(r.edge_rules, r.policy_rules);
}

TEST(ShardIdsTest, ShardCountsProduceByteIdenticalDetection) {
  const ShardWorkloadResult one = run_shard_workload(ids_workload(1, 7));
  EXPECT_GT(one.ids_truth, 0u);
  EXPECT_FALSE(one.ids_action_log.empty());
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const ShardWorkloadResult many = run_shard_workload(ids_workload(shards, 7));
    expect_ids_surface_eq(one, many, "shards");
    EXPECT_EQ(one.action_log, many.action_log);
    EXPECT_TRUE(many.conservation_ok) << many.conservation_error;
  }
}

TEST(ShardIdsTest, DetectionSurfaceIsInvariantUnderEnforcement) {
  // Taps capture device egress, upstream of the edge filters: turning
  // mitigation off changes what the edges drop but not a single captured
  // row or verdict.
  ShardWorkloadConfig detect_only = ids_workload(2, 11);
  detect_only.ids.mitigation = false;
  const ShardWorkloadResult enforced = run_shard_workload(ids_workload(2, 11));
  const ShardWorkloadResult observed = run_shard_workload(detect_only);
  EXPECT_EQ(enforced.ids_row_digest, observed.ids_row_digest);
  EXPECT_EQ(enforced.ids_verdict_digest, observed.ids_verdict_digest);
  EXPECT_EQ(enforced.ids_rows, observed.ids_rows);
  EXPECT_GT(enforced.acl_dropped + enforced.ratelimit_dropped, 0u);
  EXPECT_EQ(observed.acl_dropped + observed.ratelimit_dropped, 0u);
  EXPECT_TRUE(observed.ids_action_log.empty());
}

TEST(ShardIdsTest, FlushClosesAFinalPartialWindow) {
  // Traffic stops at 220ms, run ends at 250ms: boundaries at 100/200ms
  // close via the hook, the (200, 250] remainder only via flush(), which
  // runs the per-shard phases serially (outside run_until).
  ShardWorkloadConfig cfg = ids_workload(1, 5);
  cfg.duration = SimTime::millis(250);
  cfg.drain_margin = SimTime::millis(30);
  const ShardWorkloadResult single = run_shard_workload(cfg);
  for (const std::size_t shards : {2u, 4u}) {
    cfg.shard_count = shards;
    const ShardWorkloadResult r = run_shard_workload(cfg);
    EXPECT_TRUE(r.conservation_ok) << r.conservation_error;
    EXPECT_EQ(r.ids_windows, 3u);
    EXPECT_EQ(r.ids_rows, r.upstream_sent + r.gossip_sent + r.flood_sent);
    expect_ids_surface_eq(single, r, "flush-window");
  }
}

// Stress shape for the TSan job: enough shards, devices, and batch churn
// that the tap/accumulator handoff between shard threads and the hook
// thread is exercised hard. Assertions are light; the sanitizer is the
// real check.
TEST(ShardIdsStress, MergeUnderLoadStaysConsistent) {
  ShardWorkloadConfig cfg = ids_workload(8, 1234);
  cfg.device_count = 64;
  cfg.cluster_count = 16;
  cfg.flood_device_count = 8;
  cfg.ids.tap_batch_capacity = 32;  // force frequent batch flushes
  const ShardWorkloadResult r = run_shard_workload(cfg);
  EXPECT_TRUE(r.conservation_ok) << r.conservation_error;
  EXPECT_EQ(r.ids_rows, r.upstream_sent + r.gossip_sent + r.flood_sent);
  EXPECT_EQ(r.ids_truth, r.flood_sent);
  EXPECT_GT(r.ids_windows, 0u);
}

}  // namespace
}  // namespace ddoshield::core

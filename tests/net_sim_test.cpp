// Tests for the discrete-event engine, links, nodes/routing, and UDP.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <vector>

#include "net/address.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/simulator.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"

namespace ddoshield::net {
namespace {

using util::SimTime;

// --------------------------------------------------------------------------
// Ipv4Address
// --------------------------------------------------------------------------

TEST(Ipv4AddressTest, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("192.168.1.42");
  EXPECT_EQ(a.to_string(), "192.168.1.42");
  EXPECT_EQ(a, Ipv4Address(192, 168, 1, 42));
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Address::parse(""), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("256.0.0.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.x"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1..2.3"), std::invalid_argument);
}

TEST(Ipv4AddressTest, SubnetMatching) {
  const auto a = Ipv4Address(10, 0, 1, 5);
  const auto b = Ipv4Address(10, 0, 1, 200);
  const auto c = Ipv4Address(10, 0, 2, 5);
  EXPECT_TRUE(a.same_subnet(b, 24));
  EXPECT_FALSE(a.same_subnet(c, 24));
  EXPECT_TRUE(a.same_subnet(c, 16));
  EXPECT_TRUE(a.same_subnet(c, 0));
  EXPECT_FALSE(a.same_subnet(b, 32));
  EXPECT_TRUE(a.same_subnet(a, 32));
}

// --------------------------------------------------------------------------
// Simulator
// --------------------------------------------------------------------------

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(30));
}

TEST(SimulatorTest, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(SimTime::millis(7), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.schedule(SimTime::millis(10), [&] { ++ran; });
  sim.schedule(SimTime::millis(50), [&] { ++ran; });
  sim.run_until(SimTime::millis(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(20));
  sim.run_until(SimTime::millis(100));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), SimTime::millis(100));
}

TEST(SimulatorTest, EventsScheduledFromEventsRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(SimTime::millis(1), recurse);
  };
  sim.schedule(SimTime::millis(1), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule(SimTime::millis(5), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run_all();
  EXPECT_FALSE(ran);
  h.cancel();  // double cancel is a no-op
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.run_until(SimTime::seconds(1));
  EXPECT_THROW(sim.schedule_at(SimTime::millis(500), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(SimTime::millis(-1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(SimTime::millis(i), [] {});
  EXPECT_EQ(sim.events_pending(), 10u);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

// --------------------------------------------------------------------------
// Calendar-queue scheduler
// --------------------------------------------------------------------------

// The order the calendar queue must reproduce, by definition: one binary
// heap keyed on (when, insertion seq), popping cancelled events without
// running them. Same surface as QueueUnderTest so one driver runs both.
class ReferenceQueue {
 public:
  SimTime now() const { return now_; }
  std::size_t schedule(SimTime delay, std::function<void()> fn) {
    const std::uint64_t seq = push(now_ + delay, std::move(fn));
    return static_cast<std::size_t>(seq);
  }
  void post(SimTime delay, std::function<void()> fn) { push(now_ + delay, std::move(fn)); }
  void post_at(SimTime when, std::function<void()> fn) { push(when, std::move(fn)); }
  void cancel(std::size_t token) { cancelled_.insert(token); }
  void run_until(SimTime until) {
    while (!queue_.empty() && queue_.top().when <= until) {
      const Entry e = queue_.top();
      queue_.pop();
      now_ = e.when;
      if (cancelled_.count(e.seq) == 0) e.fn();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::uint64_t push(SimTime when, std::function<void()> fn) {
    queue_.push(Entry{when, next_seq_, std::move(fn)});
    return next_seq_++;
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::set<std::size_t> cancelled_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
};

// The Simulator behind the ReferenceQueue surface; cancellation tokens
// index the returned handles.
struct QueueUnderTest {
  Simulator sim;
  std::vector<EventHandle> handles;

  SimTime now() const { return sim.now(); }
  std::size_t schedule(SimTime delay, std::function<void()> fn) {
    handles.push_back(sim.schedule(delay, std::move(fn)));
    return handles.size() - 1;
  }
  void post(SimTime delay, std::function<void()> fn) {
    sim.post_at(sim.now() + delay, std::move(fn));
  }
  void post_at(SimTime when, std::function<void()> fn) { sim.post_at(when, std::move(fn)); }
  void cancel(std::size_t token) { handles[token].cancel(); }
  void run_until(SimTime until) { sim.run_until(until); }
};

struct Fired {
  std::uint64_t id = 0;
  std::int64_t at_ns = 0;
  bool operator==(const Fired&) const = default;
};

// Identical interleavings on the calendar queue and the reference heap,
// including mixed bucket/spill horizons and same-timestamp FIFO ties.
TEST(CalendarQueueTest, OrderMatchesBinaryHeapAcrossHorizons) {
  const std::vector<std::int64_t> delays_us = {
      500,        300,        300,       7'000'000,  12,         999'999,   5'000'000'000,
      4'095'999,  4'096'000,  4'097'000, 80'000'000, 80'000'000, 1,         0,
      33'000'000, 64'000'000, 2'500,     2'500,      2'500,      123'456'789};
  auto run = [&](auto& queue) {
    std::vector<Fired> fired;
    for (std::size_t i = 0; i < delays_us.size(); ++i) {
      queue.schedule(SimTime::micros(delays_us[i]), [&fired, &queue, i] {
        fired.push_back({i, queue.now().ns()});
      });
    }
    queue.run_until(SimTime::seconds(10'000));
    return fired;
  };
  QueueUnderTest calendar;
  ReferenceQueue reference;
  const auto got = run(calendar);
  EXPECT_EQ(got, run(reference));
  EXPECT_EQ(got.size(), delays_us.size());
}

// Seeded random mix of schedule/post/post_at, cancellations, equal-time
// ties, callbacks that schedule further events, horizons past the ~4.1 s
// wheel. Callbacks draw from the RNG too, so the two queues
// see the same operations exactly as long as they run the same events in
// the same order.
template <typename Queue>
std::vector<Fired> run_random_ops(Queue& queue, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Fired> fired;
  std::vector<std::size_t> tokens;
  std::uint64_t next_id = 0;

  auto delay = [&rng]() {
    switch (rng.uniform_u64(5)) {
      case 0:  // a few exact instants: many equal-time ties
        return SimTime::micros(500 * static_cast<std::int64_t>(rng.uniform_u64(4)));
      case 1:
        return SimTime::micros(static_cast<std::int64_t>(rng.uniform_u64(50'000)));
      case 2:  // straddles the wheel's end
        return SimTime::millis(static_cast<std::int64_t>(rng.uniform_u64(4'200)));
      case 3:  // whole wheel spans apart: same bucket, different days
        return SimTime::millis(4'096 * static_cast<std::int64_t>(1 + rng.uniform_u64(3)));
      default:  // spillover heap, wheel rollover and migration
        return SimTime::millis(4'000 + static_cast<std::int64_t>(rng.uniform_u64(60'000)));
    }
  };
  std::function<void(int)> add = [&](int depth) {
    const std::uint64_t id = next_id++;
    auto fn = [&, id, depth] {
      fired.push_back({id, queue.now().ns()});
      if (!tokens.empty() && rng.bernoulli(0.1)) {
        queue.cancel(tokens[rng.uniform_u64(tokens.size())]);
      }
      if (depth < 3) {
        for (std::uint64_t k = rng.uniform_u64(3); k > 0; --k) add(depth + 1);
      }
    };
    switch (rng.uniform_u64(3)) {
      case 0:
        tokens.push_back(queue.schedule(delay(), std::move(fn)));
        break;
      case 1:
        queue.post(delay(), std::move(fn));
        break;
      default: {
        // Absolute times on the 1 ms grid collide with events of every
        // insertion kind.
        const std::int64_t next_ms = queue.now().ns() / 1'000'000 + 1;
        const auto ms = next_ms + static_cast<std::int64_t>(rng.uniform_u64(8));
        queue.post_at(SimTime::millis(ms), std::move(fn));
        break;
      }
    }
  };

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.uniform_u64(100);
    if (op < 55) {
      add(0);
    } else if (op < 70) {
      if (!tokens.empty()) queue.cancel(tokens[rng.uniform_u64(tokens.size())]);
    } else {
      queue.run_until(queue.now() + delay());
    }
  }
  queue.run_until(queue.now() + SimTime::seconds(1'000));
  return fired;
}

TEST(CalendarQueueTest, RandomizedOpsMatchReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    QueueUnderTest calendar;
    ReferenceQueue reference;
    const std::vector<Fired> got = run_random_ops(calendar, seed);
    const std::vector<Fired> want = run_random_ops(reference, seed);
    ASSERT_GT(want.size(), 200u) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(calendar.sim.events_pending(), 0u);
    EXPECT_EQ(calendar.sim.time_regressions(), 0u);
    EXPECT_GT(calendar.sim.events_cancelled(), 0u) << "seed " << seed;
    EXPECT_GT(calendar.sim.calendar_rollovers(), 0u) << "seed " << seed;
    EXPECT_GT(calendar.sim.calendar_migrations(), 0u) << "seed " << seed;
  }
}

TEST(CalendarQueueTest, FarFutureEventsSpillOverAndMigrateBack) {
  Simulator sim;
  // The wheel covers ~4.1 s; a 60 s timer must sit in the spillover heap
  // until the wheel fast-forwards to it.
  int ran = 0;
  sim.schedule(SimTime::seconds(60), [&] { ++ran; });
  sim.schedule(SimTime::millis(1), [&] { ++ran; });
  EXPECT_EQ(sim.calendar_overflow_pending(), 1u);
  sim.run_all();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.calendar_overflow_pending(), 0u);
  EXPECT_GE(sim.calendar_rollovers(), 1u);
  EXPECT_GE(sim.calendar_migrations(), 1u);
  EXPECT_EQ(sim.now(), SimTime::seconds(60));
}

TEST(CalendarQueueTest, CancellationWorksInBucketsAndOverflow) {
  Simulator sim;
  bool near_ran = false;
  bool far_ran = false;
  auto near = sim.schedule(SimTime::millis(2), [&] { near_ran = true; });
  auto far = sim.schedule(SimTime::seconds(30), [&] { far_ran = true; });
  near.cancel();
  far.cancel();
  sim.run_all();
  EXPECT_FALSE(near_ran);
  EXPECT_FALSE(far_ran);
  EXPECT_EQ(sim.events_cancelled(), 2u);
}

TEST(CalendarQueueTest, PostedEventsRunWithoutHandles) {
  Simulator sim;
  std::vector<int> order;
  sim.post_at(SimTime::millis(2), [&] { order.push_back(2); });
  sim.post_at(SimTime::millis(1), [&] { order.push_back(1); });
  sim.post_at(SimTime::seconds(10), [&] { order.push_back(3); });
  EXPECT_THROW(sim.post_at(SimTime::millis(-1), [] {}), std::invalid_argument);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CalendarQueueTest, HighWaterAndPendingTrackWheelAndSpillover) {
  Simulator sim;
  for (int i = 0; i < 32; ++i) sim.schedule(SimTime::millis(1 + i % 3), [] {});
  for (int i = 0; i < 8; ++i) sim.post_at(SimTime::seconds(10 + i), [] {});
  EXPECT_EQ(sim.calendar_overflow_pending(), 8u);
  EXPECT_EQ(sim.pending_events(), 40u);
  EXPECT_EQ(sim.queue_high_water(), 40u);
  sim.run_all();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queue_high_water(), 40u);
  EXPECT_EQ(sim.events_executed(), 40u);
  EXPECT_EQ(sim.time_regressions(), 0u);
}

// --------------------------------------------------------------------------
// Link + Node datapath
// --------------------------------------------------------------------------

struct TwoNodeFixture : ::testing::Test {
  Network net;
  Node* a = nullptr;
  Node* b = nullptr;
  Link* link = nullptr;

  void SetUp() override {
    a = &net.add_node("a", Ipv4Address{10, 0, 0, 1});
    b = &net.add_node("b", Ipv4Address{10, 0, 0, 2});
    link = &net.add_link(*a, *b,
                         LinkConfig{.rate_bps = 8e6,  // 1 byte/us
                                    .delay = SimTime::millis(1),
                                    .queue_bytes = 10000});
    a->set_default_route(0);
    b->set_default_route(0);
  }

  Packet make_udp(std::uint32_t payload) {
    Packet p;
    p.dst = b->address();
    p.proto = IpProto::kUdp;
    p.dst_port = 9;
    p.payload_bytes = payload;
    return p;
  }
};

TEST_F(TwoNodeFixture, PacketArrivesAfterSerializationPlusDelay) {
  auto sock = b->udp().open(9);
  SimTime arrival;
  sock->set_receive_callback([&](const Packet&) { arrival = net.simulator().now(); });

  a->send(make_udp(972));  // wire = 972 + 28 = 1000 bytes = 1ms at 8 Mbps
  net.simulator().run_all();
  EXPECT_EQ(arrival, SimTime::millis(2));  // 1ms tx + 1ms propagation
}

TEST_F(TwoNodeFixture, BackToBackPacketsQueueBehindEachOther) {
  auto sock = b->udp().open(9);
  std::vector<SimTime> arrivals;
  sock->set_receive_callback([&](const Packet&) { arrivals.push_back(net.simulator().now()); });

  a->send(make_udp(972));
  a->send(make_udp(972));
  net.simulator().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], SimTime::millis(2));
  EXPECT_EQ(arrivals[1], SimTime::millis(3));  // queued behind the first
}

TEST_F(TwoNodeFixture, DropTailRejectsWhenBufferFull) {
  auto sock = b->udp().open(9);
  int received = 0;
  sock->set_receive_callback([&](const Packet&) { ++received; });

  // queue_bytes = 10000; each packet is 1000 wire bytes. The first starts
  // transmitting immediately; the backlog then grows until drops begin.
  for (int i = 0; i < 30; ++i) a->send(make_udp(972));
  net.simulator().run_all();
  EXPECT_LT(received, 30);
  EXPECT_GT(received, 5);
  EXPECT_GT(link->stats_from(*a).dropped_packets, 0u);
  EXPECT_EQ(link->stats_from(*a).tx_packets + link->stats_from(*a).dropped_packets, 30u);
}

TEST_F(TwoNodeFixture, DownedLinkDropsEverything) {
  auto sock = b->udp().open(9);
  int received = 0;
  sock->set_receive_callback([&](const Packet&) { ++received; });
  link->set_up(false);
  a->send(make_udp(100));
  net.simulator().run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(link->stats_from(*a).dropped_packets, 1u);
}

TEST_F(TwoNodeFixture, TapsSeeSentAndReceived) {
  auto sock = b->udp().open(9);
  sock->set_receive_callback([](const Packet&) {});
  int sent_seen = 0, recv_seen = 0;
  a->add_tap([&](const Packet&, TapDirection d) { sent_seen += d == TapDirection::kSent; });
  b->add_tap([&](const Packet&, TapDirection d) { recv_seen += d == TapDirection::kReceived; });
  a->send(make_udp(10));
  net.simulator().run_all();
  EXPECT_EQ(sent_seen, 1);
  EXPECT_EQ(recv_seen, 1);
}

TEST_F(TwoNodeFixture, SourceAddressDefaultsAndSpoofingHonoured) {
  auto sock = b->udp().open(9);
  Ipv4Address seen_src;
  sock->set_receive_callback([&](const Packet& p) { seen_src = p.src; });

  a->send(make_udp(10));
  net.simulator().run_all();
  EXPECT_EQ(seen_src, a->address());

  Packet spoofed = make_udp(10);
  spoofed.src = Ipv4Address{1, 2, 3, 4};
  a->send(std::move(spoofed));
  net.simulator().run_all();
  EXPECT_EQ(seen_src, (Ipv4Address{1, 2, 3, 4}));
}

TEST_F(TwoNodeFixture, NoRouteCountsDrop) {
  Packet p = make_udp(10);
  p.dst = Ipv4Address{99, 99, 99, 99};
  // b has a default route, so use a fresh node with none.
  Node& c = net.add_node("c", Ipv4Address{10, 0, 0, 3});
  c.send(std::move(p));
  EXPECT_EQ(c.stats().dropped_no_route, 1u);
}

// --------------------------------------------------------------------------
// Routing through the star topology
// --------------------------------------------------------------------------

TEST(StarTopologyTest, DeviceReachesTServerThroughRouter) {
  Network net;
  StarTopology topo = build_star_topology(net, StarTopologyConfig{.device_count = 3});

  auto sock = topo.tserver->udp().open(5000);
  int received = 0;
  Ipv4Address last_src;
  sock->set_receive_callback([&](const Packet& p) {
    ++received;
    last_src = p.src;
  });

  for (Node* dev : topo.devices) {
    auto s = dev->udp().open();
    s->send_to(Endpoint{topo.tserver->address(), 5000}, 64, TrafficOrigin::kHttp);
  }
  net.simulator().run_all();
  EXPECT_EQ(received, 3);
  EXPECT_GT(topo.router->stats().forwarded_packets, 0u);
}

TEST(StarTopologyTest, TServerCanReplyToDevice) {
  Network net;
  StarTopology topo = build_star_topology(net, StarTopologyConfig{.device_count = 2});

  auto server_sock = topo.tserver->udp().open(5000);
  server_sock->set_receive_callback([&](const Packet& p) {
    server_sock->send_to(Endpoint{p.src, p.src_port}, 32, TrafficOrigin::kHttp);
  });

  auto dev_sock = topo.devices[0]->udp().open();
  int replies = 0;
  dev_sock->set_receive_callback([&](const Packet&) { ++replies; });
  dev_sock->send_to(Endpoint{topo.tserver->address(), 5000}, 16, TrafficOrigin::kHttp);
  net.simulator().run_all();
  EXPECT_EQ(replies, 1);
}

TEST(StarTopologyTest, TtlExpiryIsCounted) {
  Network net;
  StarTopology topo = build_star_topology(net, StarTopologyConfig{.device_count = 1});
  Packet p;
  p.dst = topo.tserver->address();
  p.dst_port = 7;
  p.proto = IpProto::kUdp;
  p.ttl = 1;  // dies at the router
  topo.devices[0]->send(std::move(p));
  net.simulator().run_all();
  EXPECT_EQ(topo.router->stats().dropped_ttl, 1u);
}

TEST(StarTopologyTest, RouteCacheMatchesLinearScanAndInvalidates) {
  // Enough devices that the router's table crosses the cache threshold.
  Network net;
  StarTopology topo = build_star_topology(net, StarTopologyConfig{.device_count = 12});
  Node& router = *topo.router;

  // Reference lookup: the star router's routes lead each host's address to
  // the interface whose link reaches that host, and nothing else anywhere.
  auto reference = [&router](Ipv4Address dst) {
    for (std::size_t i = 0; i < router.interface_count(); ++i) {
      if (router.link_at(i).peer_of(router).address() == dst) return static_cast<int>(i);
    }
    return -1;
  };
  std::vector<Ipv4Address> dsts{topo.tserver->address(), topo.attacker->address()};
  for (Node* dev : topo.devices) dsts.push_back(dev->address());
  dsts.push_back(Ipv4Address{192, 168, 9, 9});  // no route: -1

  // Cached lookups must match the reference for every destination — twice,
  // so the second pass reads populated cache slots.
  std::vector<int> cached;
  std::vector<int> expected;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& dst : dsts) {
      cached.push_back(router.route_lookup(dst));
      expected.push_back(reference(dst));
    }
  }
  EXPECT_EQ(cached, expected);

  // Adding a route must invalidate cached entries: the previously cached
  // unknown destination now resolves through the new more-specific route.
  const int before = topo.router->route_lookup(Ipv4Address{192, 168, 9, 9});
  topo.router->add_route(Ipv4Address{192, 168, 9, 0}, 24, 0);
  const int after = topo.router->route_lookup(Ipv4Address{192, 168, 9, 9});
  EXPECT_EQ(after, 0);
  // The star router has no default route, so the pre-invalidation answer
  // was "unroutable".
  EXPECT_EQ(before, -1);
}

TEST(StarTopologyTest, DuplicateNamesAndAddressesRejected) {
  Network net;
  net.add_node("x", Ipv4Address{1, 1, 1, 1});
  EXPECT_THROW(net.add_node("x", Ipv4Address{1, 1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(net.add_node("y", Ipv4Address{1, 1, 1, 1}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// UDP socket layer
// --------------------------------------------------------------------------

TEST_F(TwoNodeFixture, UdpPortDemultiplexing) {
  auto s1 = b->udp().open(1000);
  auto s2 = b->udp().open(2000);
  int on1 = 0, on2 = 0;
  s1->set_receive_callback([&](const Packet&) { ++on1; });
  s2->set_receive_callback([&](const Packet&) { ++on2; });

  auto client = a->udp().open();
  client->send_to(Endpoint{b->address(), 1000}, 8, TrafficOrigin::kHttp);
  client->send_to(Endpoint{b->address(), 2000}, 8, TrafficOrigin::kHttp);
  client->send_to(Endpoint{b->address(), 2000}, 8, TrafficOrigin::kHttp);
  net.simulator().run_all();
  EXPECT_EQ(on1, 1);
  EXPECT_EQ(on2, 2);
}

TEST_F(TwoNodeFixture, UdpToUnboundPortCountsDrop) {
  auto client = a->udp().open();
  client->send_to(Endpoint{b->address(), 4444}, 8, TrafficOrigin::kMiraiUdpFlood);
  net.simulator().run_all();
  EXPECT_EQ(b->udp().dropped_no_socket(), 1u);
  EXPECT_EQ(b->udp().delivered(), 0u);
}

TEST_F(TwoNodeFixture, UdpDoubleBindThrows) {
  auto s1 = b->udp().open(1000);
  EXPECT_THROW(b->udp().open(1000), std::invalid_argument);
}

TEST_F(TwoNodeFixture, UdpCloseReleasesPort) {
  // A socket closes when its last handle goes; the port is free again.
  b->udp().open(1000);
  EXPECT_NO_THROW(b->udp().open(1000));
}

TEST_F(TwoNodeFixture, EphemeralPortsAreDistinct) {
  auto s1 = a->udp().open();
  auto s2 = a->udp().open();
  auto s3 = a->udp().open();
  EXPECT_NE(s1->port(), s2->port());
  EXPECT_NE(s2->port(), s3->port());
  EXPECT_GE(s1->port(), 1024);
}

TEST_F(TwoNodeFixture, AppDataRidesOnDatagram) {
  auto sock = b->udp().open(9);
  std::string seen;
  sock->set_receive_callback([&](const Packet& p) { seen = p.app_data; });
  auto client = a->udp().open();
  client->send_to(Endpoint{b->address(), 9}, 8, TrafficOrigin::kMiraiC2, "attack syn 10");
  net.simulator().run_all();
  EXPECT_EQ(seen, "attack syn 10");
}

// --------------------------------------------------------------------------
// Packet helpers
// --------------------------------------------------------------------------

TEST(PacketTest, WireBytesIncludesHeaders) {
  Packet tcp;
  tcp.proto = IpProto::kTcp;
  tcp.payload_bytes = 100;
  EXPECT_EQ(tcp.wire_bytes(), 140u);  // 20 IP + 20 TCP + 100

  Packet udp;
  udp.proto = IpProto::kUdp;
  udp.payload_bytes = 100;
  EXPECT_EQ(udp.wire_bytes(), 128u);  // 20 IP + 8 UDP + 100
}

TEST(PacketTest, TrafficClassOfOrigins) {
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kHttp), TrafficClass::kBenign);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kVideo), TrafficClass::kBenign);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kFtp), TrafficClass::kBenign);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kInfrastructure), TrafficClass::kBenign);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kMiraiScan), TrafficClass::kMalicious);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kMiraiC2), TrafficClass::kMalicious);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kMiraiSynFlood), TrafficClass::kMalicious);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kMiraiAckFlood), TrafficClass::kMalicious);
  EXPECT_EQ(traffic_class_of(TrafficOrigin::kMiraiUdpFlood), TrafficClass::kMalicious);
}

}  // namespace
}  // namespace ddoshield::net

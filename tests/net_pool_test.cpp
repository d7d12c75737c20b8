// Tests for the free-list PacketPool: slot reuse, block-at-a-time growth
// under exhaustion, payload-arena capacity retention, and the
// double-release abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

namespace ddoshield::net {
namespace {

TEST(PacketPoolTest, FirstAcquireAllocatesOneBlock) {
  PacketPool pool;
  Packet* p = pool.acquire();
  ASSERT_NE(p, nullptr);
  const auto& s = pool.stats();
  EXPECT_EQ(s.allocated_blocks, 1u);
  EXPECT_EQ(s.allocated_packets, PacketPool::kBlockPackets);
  EXPECT_EQ(s.acquires, 1u);
  EXPECT_EQ(s.outstanding, 1u);
  pool.release(p);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(PacketPoolTest, ReleasedSlotIsReusedWithoutAllocation) {
  PacketPool pool;
  Packet* a = pool.acquire();
  pool.release(a);
  Packet* b = pool.acquire();
  // LIFO free list: the most recently released slot comes back first.
  EXPECT_EQ(a, b);
  const auto& s = pool.stats();
  EXPECT_EQ(s.allocated_blocks, 1u);
  EXPECT_EQ(s.allocated_packets, PacketPool::kBlockPackets);
  EXPECT_EQ(s.reuses, 1u);
  pool.release(b);
}

TEST(PacketPoolTest, ReusedSlotComesBackFieldReset) {
  PacketPool pool;
  Packet* p = pool.acquire();
  p->src = Ipv4Address(10, 0, 0, 1);
  p->dst = Ipv4Address(10, 0, 0, 2);
  p->proto = IpProto::kTcp;
  p->src_port = 1234;
  p->dst_port = 80;
  p->seq = 42;
  p->tcp_flags = TcpFlags::kSyn;
  p->payload_bytes = 512;
  p->app_data = "GET / HTTP/1.1";
  p->origin = TrafficOrigin::kMiraiSynFlood;
  p->uid = 7;
  p->stack_tcp = true;
  p->corrupted = true;
  pool.release(p);

  Packet* q = pool.acquire();
  ASSERT_EQ(p, q);
  EXPECT_EQ(q->src, Ipv4Address{});
  EXPECT_EQ(q->dst, Ipv4Address{});
  EXPECT_EQ(q->proto, IpProto::kUdp);
  EXPECT_EQ(q->src_port, 0);
  EXPECT_EQ(q->dst_port, 0);
  EXPECT_EQ(q->seq, 0u);
  EXPECT_EQ(q->tcp_flags, 0);
  EXPECT_EQ(q->payload_bytes, 0u);
  EXPECT_TRUE(q->app_data.empty());
  EXPECT_EQ(q->origin, TrafficOrigin::kInfrastructure);
  EXPECT_EQ(q->uid, 0u);
  EXPECT_FALSE(q->stack_tcp);
  EXPECT_FALSE(q->corrupted);
  pool.release(q);
}

TEST(PacketPoolTest, AppDataCapacitySurvivesReuse) {
  PacketPool pool;
  Packet* p = pool.acquire();
  p->app_data.assign(4096, 'x');
  const std::size_t cap = p->app_data.capacity();
  pool.release(p);
  Packet* q = pool.acquire();
  ASSERT_EQ(p, q);
  // clear() preserves the buffer — the retained capacity is the payload
  // arena that keeps steady-state sends allocation-free.
  EXPECT_TRUE(q->app_data.empty());
  EXPECT_GE(q->app_data.capacity(), cap);
  pool.release(q);
}

TEST(PacketPoolTest, ExhaustionGrowsBlockAtATime) {
  PacketPool pool;
  std::vector<Packet*> held;
  // Drain the first block completely, then one more acquire must grow by
  // exactly one block (not per-packet).
  for (std::size_t i = 0; i < PacketPool::kBlockPackets; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().allocated_blocks, 1u);
  held.push_back(pool.acquire());
  const auto& s = pool.stats();
  EXPECT_EQ(s.allocated_blocks, 2u);
  EXPECT_EQ(s.allocated_packets, 2 * PacketPool::kBlockPackets);
  EXPECT_EQ(s.outstanding, PacketPool::kBlockPackets + 1);
  EXPECT_EQ(s.outstanding_high_water, PacketPool::kBlockPackets + 1);

  // All slots are distinct.
  std::vector<Packet*> sorted = held;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());

  for (Packet* p : held) pool.release(p);
  EXPECT_EQ(pool.stats().outstanding, 0u);

  // Warm pool: churning through the same depth again allocates nothing.
  const std::uint64_t allocated_before = pool.stats().allocated_packets;
  for (int round = 0; round < 3; ++round) {
    std::vector<Packet*> again;
    for (std::size_t i = 0; i < PacketPool::kBlockPackets + 1; ++i) again.push_back(pool.acquire());
    for (Packet* p : again) pool.release(p);
  }
  EXPECT_EQ(pool.stats().allocated_packets, allocated_before);
  EXPECT_EQ(pool.stats().allocated_blocks, 2u);
}

#if GTEST_HAS_DEATH_TEST
TEST(PacketPoolDeathTest, DoubleReleaseAborts) {
  PacketPool pool;
  Packet* p = pool.acquire();
  pool.release(p);
  EXPECT_DEATH(pool.release(p), "double release");
}
#endif

}  // namespace
}  // namespace ddoshield::net

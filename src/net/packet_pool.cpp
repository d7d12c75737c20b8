#include "net/packet_pool.hpp"

#include <cstdio>
#include <cstdlib>

namespace ddoshield::net {

PacketPool::~PacketPool() = default;

PacketPool::Slot* PacketPool::slot_of(Packet* pkt) {
  // Packet is the first member of Slot, so the addresses coincide
  // (offsetof is unusable here: Packet holds a std::string, making Slot
  // non-standard-layout).
  return reinterpret_cast<Slot*>(pkt);
}

void PacketPool::reset_for_reuse(Packet& pkt) {
  // Field-wise reset that keeps app_data's buffer: the retained capacity
  // is the pool's payload arena.
  pkt.src = Ipv4Address{};
  pkt.dst = Ipv4Address{};
  pkt.proto = IpProto::kUdp;
  pkt.ttl = 64;
  pkt.src_port = 0;
  pkt.dst_port = 0;
  pkt.seq = 0;
  pkt.ack = 0;
  pkt.tcp_flags = 0;
  pkt.payload_bytes = 0;
  pkt.app_data.clear();
  pkt.origin = TrafficOrigin::kInfrastructure;
  pkt.sent_at = util::SimTime{};
  pkt.uid = 0;
  pkt.stack_tcp = false;
  pkt.corrupted = false;
}

void PacketPool::grow_block() {
  auto block = std::make_unique<Slot[]>(kBlockPackets);
  free_list_.reserve(free_list_.capacity() + kBlockPackets);
  for (std::size_t i = kBlockPackets; i-- > 0;) {
    block[i].in_free_list = true;
    free_list_.push_back(&block[i]);
  }
  blocks_.push_back(std::move(block));
  ++stats_.allocated_blocks;
  stats_.allocated_packets += kBlockPackets;
}

void PacketPool::reserve(std::size_t packets) {
  while (stats_.allocated_packets < packets) grow_block();
}

Packet* PacketPool::acquire() {
  ++stats_.acquires;
  ++stats_.outstanding;
  if (stats_.outstanding > stats_.outstanding_high_water) {
    stats_.outstanding_high_water = stats_.outstanding;
  }

  if (free_list_.empty()) {
    grow_block();
  } else {
    ++stats_.reuses;
  }

  Slot* slot = free_list_.back();
  free_list_.pop_back();
  slot->in_free_list = false;
  reset_for_reuse(slot->pkt);
  return &slot->pkt;
}

void PacketPool::release(Packet* pkt) {
  Slot* slot = slot_of(pkt);
  if (slot->in_free_list) {
    std::fprintf(stderr, "PacketPool::release: double release of packet slot %p\n",
                 static_cast<void*>(pkt));
    std::abort();
  }
  slot->in_free_list = true;
  free_list_.push_back(slot);
  ++stats_.releases;
  --stats_.outstanding;
}

}  // namespace ddoshield::net

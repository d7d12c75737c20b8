// Free-list packet pool for the simulation hot path.
//
// Every packet in flight on a link used to live inside a heap-allocated
// closure; at flood rates that is one malloc/free pair per packet. The
// pool instead hands out slots from chunked arena blocks (kBlockPackets
// packets per block) threaded on a free list. A released slot keeps its
// Packet's app_data capacity, so the string buffer doubles as a payload
// arena: once the pool has grown to the simulation's in-flight high-water
// mark, steady state acquires and releases touch the allocator zero times
// — the property bench_scale gates on via stats().allocated_packets.
//
// Ownership protocol: acquire() transfers ownership of the slot to the
// caller; exactly one matching release() returns it. Link::transmit owns
// the slot for a packet's whole flight and releases it after delivery (or
// after accounting an in-flight loss). Double releases abort immediately
// with a diagnostic — a use-after-release would otherwise silently corrupt
// another in-flight packet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace ddoshield::net {

class PacketPool {
 public:
  /// Packets per arena block. Growth is block-at-a-time so a burst does
  /// not trigger per-packet allocations even while the pool warms up.
  static constexpr std::size_t kBlockPackets = 256;

  struct Stats {
    std::uint64_t allocated_blocks = 0;
    /// Fresh slots ever created. Flat after warmup: the bench's
    /// steady-state gate.
    std::uint64_t allocated_packets = 0;
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    /// Acquires served from the free list (no allocator traffic).
    std::uint64_t reuses = 0;
    std::uint64_t outstanding = 0;
    std::uint64_t outstanding_high_water = 0;
  };

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// Pre-grows the pool to at least `packets` slots (whole blocks), so a
  /// run whose in-flight peak stays under that count performs zero
  /// allocations end to end.
  void reserve(std::size_t packets);

  /// Returns a default-initialized packet slot (app_data cleared but its
  /// capacity retained from the slot's previous life).
  Packet* acquire();

  /// Returns a slot to the free list. Aborts on double release.
  void release(Packet* pkt);

  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    Packet pkt;
    bool in_free_list = false;
  };

  static Slot* slot_of(Packet* pkt);
  static void reset_for_reuse(Packet& pkt);
  void grow_block();

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<Slot*> free_list_;
  Stats stats_;
};

}  // namespace ddoshield::net

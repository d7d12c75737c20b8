// Bounded lock-free single-producer / single-consumer ring.
//
// The hand-off between two threads: a shard and its neighbour (the
// cross-shard channels). Capacity is rounded up to a power of two;
// try_push / try_pop are wait-free: one relaxed load of the caller's own
// index, at most one acquire load of the opposite index, and one release
// store. Indices grow monotonically and are masked on access, so empty
// (head == tail) and full (tail - head == capacity) are unambiguous
// without a wasted slot. Each side keeps a cached copy of the opposite
// index on its own cache line (Vyukov's layout), so the common case reads
// a shared line only when the cached view runs out.
//
// Thread contract: exactly one producer thread calls try_push and exactly
// one consumer thread calls try_pop. size() is safe from either side but
// only approximate while the other side is active.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace ddoshield::util {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false (and leaves v untouched) when full.
  bool try_push(T&& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;  // genuinely full
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;  // genuinely empty
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (exact when the opposite thread is quiescent).
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // next pop slot, consumer-owned
  alignas(64) std::atomic<std::size_t> tail_{0};  // next push slot, producer-owned
  alignas(64) std::size_t cached_head_ = 0;       // producer's view of head_
  alignas(64) std::size_t cached_tail_ = 0;       // consumer's view of tail_
};

}  // namespace ddoshield::util

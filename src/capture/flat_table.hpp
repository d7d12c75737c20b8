// Open-addressing hash table for the per-packet capture/feature path.
//
// The flow bookkeeping behind the IDS features used to ride on std::map —
// a red-black tree paying one node allocation plus O(log n) pointer-chasing
// comparisons per packet. FlatTable keeps key/value pairs in one contiguous
// slot array with linear probing: a lookup is a hash, a mask, and a short
// forward scan through cache-resident slots; inserts allocate only when the
// table grows (power-of-two capacity, rehash at 7/8 combined live+tombstone
// load). Erases leave tombstones that later inserts reclaim in place, and a
// rehash drops them wholesale while preserving every live entry — per-flow
// feature state survives window-boundary rehashes untouched.
//
// Iteration order is slot order — deterministic for a given insertion
// sequence, but not sorted; consumers that need a canonical order (CSV
// exports, event logs) must sort.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

namespace ddoshield::capture {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatTable {
 public:
  struct Stats {
    std::uint64_t finds = 0;
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    std::uint64_t rehashes = 0;
    std::uint64_t tombstones_reclaimed = 0;
    std::uint64_t probe_steps = 0;     // slots visited beyond the home slot
    std::uint64_t max_probe_length = 0;
  };

  explicit FlatTable(std::size_t min_capacity = 16) {
    std::size_t cap = 8;
    while (cap < min_capacity) cap <<= 1;
    states_.assign(cap, kEmpty);
    slots_.resize(cap);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return states_.size(); }
  std::size_t tombstones() const { return tombstones_; }
  const Stats& stats() const { return stats_; }

  /// Returns the value for `key`, default-constructing it on first sight.
  Value& find_or_insert(const Key& key) {
    if ((size_ + tombstones_ + 1) * 8 > capacity() * 7) {
      rehash(size_ * 2 > capacity() ? capacity() * 2 : capacity());
    }
    const std::size_t mask = capacity() - 1;
    std::size_t i = Hash{}(key) & mask;
    std::size_t first_tombstone = kNoSlot;
    std::uint64_t probe = 0;
    for (;; i = (i + 1) & mask, ++probe) {
      if (states_[i] == kEmpty) break;
      if (states_[i] == kTombstone) {
        if (first_tombstone == kNoSlot) first_tombstone = i;
        continue;
      }
      if (slots_[i].first == key) {
        note_probe(probe);
        ++stats_.finds;
        return slots_[i].second;
      }
    }
    note_probe(probe);
    ++stats_.inserts;
    if (first_tombstone != kNoSlot) {
      i = first_tombstone;
      --tombstones_;
      ++stats_.tombstones_reclaimed;
    }
    states_[i] = kFull;
    slots_[i] = {key, Value{}};
    ++size_;
    return slots_[i].second;
  }

  Value* find(const Key& key) {
    const std::size_t mask = capacity() - 1;
    std::size_t i = Hash{}(key) & mask;
    std::uint64_t probe = 0;
    for (;; i = (i + 1) & mask, ++probe) {
      if (states_[i] == kEmpty) break;
      if (states_[i] == kFull && slots_[i].first == key) {
        note_probe(probe);
        ++stats_.finds;
        return &slots_[i].second;
      }
    }
    note_probe(probe);
    return nullptr;
  }
  const Value* find(const Key& key) const {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// Tombstones the entry; returns false if the key was absent.
  bool erase(const Key& key) {
    const std::size_t mask = capacity() - 1;
    std::size_t i = Hash{}(key) & mask;
    for (;; i = (i + 1) & mask) {
      if (states_[i] == kEmpty) return false;
      if (states_[i] == kFull && slots_[i].first == key) {
        states_[i] = kTombstone;
        slots_[i] = {};
        --size_;
        ++tombstones_;
        ++stats_.erases;
        return true;
      }
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (states_[i] == kFull) fn(slots_[i].first, slots_[i].second);
    }
  }

  void clear() {
    states_.assign(capacity(), kEmpty);
    for (auto& slot : slots_) slot = {};
    size_ = 0;
    tombstones_ = 0;
  }

  /// Grows (or compacts tombstones at the same capacity) while preserving
  /// every live entry.
  void rehash(std::size_t new_capacity) {
    std::size_t cap = 8;
    while (cap < new_capacity || cap < size_ * 2) cap <<= 1;
    std::vector<std::uint8_t> old_states = std::move(states_);
    std::vector<std::pair<Key, Value>> old_slots = std::move(slots_);
    states_.assign(cap, kEmpty);
    slots_.clear();
    slots_.resize(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) continue;
      std::size_t j = Hash{}(old_slots[i].first) & mask;
      while (states_[j] == kFull) j = (j + 1) & mask;
      states_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
    }
    tombstones_ = 0;
    ++stats_.rehashes;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void note_probe(std::uint64_t probe) {
    stats_.probe_steps += probe;
    if (probe > stats_.max_probe_length) stats_.max_probe_length = probe;
  }

  std::vector<std::uint8_t> states_;
  std::vector<std::pair<Key, Value>> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  mutable Stats stats_;
};

/// SplitMix64-style finalizer — the hash combiner the flow keys use.
inline std::uint64_t mix_u64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace ddoshield::capture

// Test oracle: the tree-map key counter the window statistics were first
// built on. The production fold (open-addressing FlatTables, key-sorted
// entropy sums) must match its Shannon entropy bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

namespace ddoshield::test_oracle {

/// Counts discrete keys and exposes Shannon entropy over the empirical
/// distribution — the paper's destination-port entropy feature.
class FrequencyCounter {
 public:
  void add(std::uint64_t key, std::uint64_t weight = 1) {
    counts_[key] += weight;
    total_ += weight;
  }
  void reset() {
    counts_.clear();
    total_ = 0;
  }

  std::uint64_t total() const { return total_; }
  std::size_t distinct() const { return counts_.size(); }
  std::uint64_t count_of(std::uint64_t key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
  }

  /// Shannon entropy in bits of the key distribution; 0 for <=1 distinct key.
  double entropy() const {
    if (total_ == 0 || counts_.size() <= 1) return 0.0;
    double h = 0.0;
    const double n = static_cast<double>(total_);
    for (const auto& [key, c] : counts_) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / n;
      h -= p * std::log2(p);
    }
    return h;
  }

  /// Largest single-key share of the total, in [0,1]; 0 when empty.
  double max_share() const {
    if (total_ == 0) return 0.0;
    std::uint64_t best = 0;
    for (const auto& [key, c] : counts_) best = std::max(best, c);
    return static_cast<double>(best) / static_cast<double>(total_);
  }

 private:
  std::map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ddoshield::test_oracle

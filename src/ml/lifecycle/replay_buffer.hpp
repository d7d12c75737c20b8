// Bounded replay buffer of labelled feature rows for lifecycle retraining.
//
// Classic reservoir sampling (Vitter's algorithm R) over the stream of
// per-window rows: every row ever fed has equal probability capacity/seen
// of being resident, so the buffer stays an unbiased sample of the whole
// serving history within a fixed memory budget. The slot choices come
// from a dedicated forked Rng stream, so the resident set — and therefore
// every retrain — is a pure function of the feed order and the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/design_matrix.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml::lifecycle {

class ReplayBuffer {
 public:
  ReplayBuffer(std::size_t features, std::size_t capacity_rows, util::Rng rng)
      : features_{features}, capacity_{capacity_rows}, rng_{rng} {
    rows_.reserve(capacity_ * features_);
    labels_.reserve(capacity_);
  }

  void add_window(const DesignMatrix& x, const std::vector<int>& y) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const auto row = x.row(i);
      ++seen_;
      if (labels_.size() < capacity_) {
        rows_.insert(rows_.end(), row.begin(), row.end());
        labels_.push_back(y[i]);
        continue;
      }
      const std::uint64_t j = rng_.uniform_u64(seen_);
      if (j < capacity_) {
        std::copy(row.begin(), row.end(), rows_.begin() + static_cast<std::ptrdiff_t>(j * features_));
        labels_[j] = y[i];
      }
    }
  }

  std::size_t size() const { return labels_.size(); }
  std::uint64_t seen() const { return seen_; }
  std::size_t features() const { return features_; }

  /// Copies the resident rows (slot order) into a trainable matrix.
  void snapshot(DesignMatrix& out_x, std::vector<int>& out_y) const {
    out_x = DesignMatrix{features_};
    out_y = labels_;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      out_x.add_row({rows_.data() + i * features_, features_});
    }
  }

 private:
  std::size_t features_;
  std::size_t capacity_;
  util::Rng rng_;
  std::vector<double> rows_;  // capacity × features, row-major
  std::vector<int> labels_;
  std::uint64_t seen_ = 0;
};

}  // namespace ddoshield::ml::lifecycle

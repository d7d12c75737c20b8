// Row-major dense design matrix — the ML layer's data container.
//
// The ML library is deliberately independent of the feature schema: it
// consumes any (rows × cols) double matrix plus integer labels, so models
// are reusable and unit-testable on synthetic data.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace ddoshield::ml {

class DesignMatrix {
 public:
  DesignMatrix() = default;
  explicit DesignMatrix(std::size_t cols) : cols_{cols} {
    if (cols == 0) throw std::invalid_argument("DesignMatrix: cols must be > 0");
  }

  std::size_t rows() const { return cols_ == 0 ? 0 : data_.size() / cols_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  void reserve(std::size_t rows) { data_.reserve(rows * cols_); }

  /// Sets the row count, keeping the allocation; rows past the old count
  /// are zero. Lets a caller refill one matrix window after window.
  void resize_rows(std::size_t rows) { data_.resize(rows * cols_); }

  void add_row(std::span<const double> row) {
    if (row.size() != cols_) {
      throw std::invalid_argument("DesignMatrix::add_row: wrong width");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }

  std::span<const double> row(std::size_t i) const {
    if (i >= rows()) throw std::out_of_range("DesignMatrix::row");
    return {data_.data() + i * cols_, cols_};
  }

  std::span<double> mutable_row(std::size_t i) {
    if (i >= rows()) throw std::out_of_range("DesignMatrix::mutable_row");
    return {data_.data() + i * cols_, cols_};
  }

  double at(std::size_t r, std::size_t c) const { return row(r)[c]; }

  /// Approximate heap footprint, for resource accounting.
  std::size_t byte_size() const { return data_.size() * sizeof(double); }

  const std::vector<double>& data() const { return data_; }
  /// Row-major cells, for writers that fill whole rows in place.
  std::span<double> mutable_data() { return data_; }

 private:
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace ddoshield::ml

// Little-endian byte buffer used by model serialization and the dataset
// writer's binary format.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ddoshield::util {

/// Appends fixed-width little-endian values to a growable byte vector.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { data_.push_back(v); }
  void put_u16(std::uint16_t v) { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }

  void put_string(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void put_f64_span(std::span<const double> xs) {
    put_u64(xs.size());
    put_raw(xs.data(), xs.size() * sizeof(double));
  }

  /// Length-prefixed opaque blob (e.g. an embedded nested serialization).
  void put_bytes(std::span<const std::uint8_t> xs) {
    put_u64(xs.size());
    put_raw(xs.data(), xs.size());
  }

  const std::vector<std::uint8_t>& bytes() const { return data_; }
  std::vector<std::uint8_t> take() { return std::move(data_); }
  std::size_t size() const { return data_.size(); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  std::vector<std::uint8_t> data_;
};

/// Reads values written by ByteWriter; throws std::out_of_range on
/// truncated input so corrupt model files fail loudly, never silently.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_{data} {}

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() { return get<double>(); }

  std::string get_string() {
    const auto n = get_u32();
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<double> get_f64_vector() {
    const auto n = get_u64();
    check(n, sizeof(double));
    std::vector<double> v(n);
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return v;
  }

  std::vector<std::uint8_t> get_bytes() {
    const auto n = get_u64();
    check(n);
    std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T get() {
    check(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  /// Throws unless `count` elements of `size` bytes remain. Compares
  /// against the remaining bytes before any arithmetic on `count`, so a
  /// hostile length prefix cannot wrap past the bound.
  void check(std::uint64_t count, std::size_t size = 1) const {
    if (count > remaining() / size) throw std::out_of_range("ByteReader: truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ddoshield::util

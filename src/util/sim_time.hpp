// Simulated-time primitives for the discrete-event engine.
//
// All simulator components express time as SimTime, a strong wrapper around
// a signed 64-bit nanosecond count. Using integers (not doubles) keeps event
// ordering exact and runs bit-reproducible across platforms.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace ddoshield::util {

/// A point or span on the simulated clock, in nanoseconds.
///
/// SimTime is used both as an absolute timestamp (since simulation start)
/// and as a duration; arithmetic between the two is the natural integer
/// arithmetic. Negative values are permitted for durations but the
/// scheduler rejects scheduling into the past.
class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime nanos(std::int64_t ns) { return SimTime{ns}; }
  static constexpr SimTime micros(std::int64_t us) { return SimTime{us * 1'000}; }
  static constexpr SimTime millis(std::int64_t ms) { return SimTime{ms * 1'000'000}; }
  static constexpr SimTime seconds(std::int64_t s) { return SimTime{s * 1'000'000'000}; }

  /// Builds a SimTime from fractional seconds; rounds to nearest nanosecond.
  static SimTime from_seconds(double s);

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  constexpr double to_millis() const { return static_cast<double>(ns_) * 1e-6; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ns_ + b.ns_}; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ns_ - b.ns_}; }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ns_ * k}; }
  friend constexpr SimTime operator/(SimTime a, std::int64_t k) { return SimTime{a.ns_ / k}; }
  constexpr SimTime& operator+=(SimTime o) { ns_ += o.ns_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ns_ -= o.ns_; return *this; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  /// Human-readable rendering, e.g. "12.345s" or "350ms".
  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

}  // namespace ddoshield::util

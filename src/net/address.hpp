// IPv4 addressing for the simulated network.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace ddoshield::net {

/// An IPv4 address stored host-order in 32 bits.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t bits) : bits_{bits} {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : bits_{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}} {}

  /// Parses dotted-quad notation; throws std::invalid_argument on bad input.
  static Ipv4Address parse(const std::string& text);

  constexpr std::uint32_t bits() const { return bits_; }
  constexpr bool is_unspecified() const { return bits_ == 0; }

  /// True if both addresses share the given prefix length.
  constexpr bool same_subnet(Ipv4Address other, int prefix_len) const {
    if (prefix_len <= 0) return true;
    const std::uint32_t mask =
        prefix_len >= 32 ? 0xFFFFFFFFu : ~((1u << (32 - prefix_len)) - 1u);
    return (bits_ & mask) == (other.bits_ & mask);
  }

  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t bits_ = 0;
};

/// (address, port) pair — the socket-level endpoint identity.
struct Endpoint {
  Ipv4Address addr;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

}  // namespace ddoshield::net

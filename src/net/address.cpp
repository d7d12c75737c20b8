#include "net/address.hpp"

#include <sstream>
#include <stdexcept>

namespace ddoshield::net {

Ipv4Address Ipv4Address::parse(const std::string& text) {
  std::uint32_t parts[4];
  std::size_t idx = 0;
  std::size_t pos = 0;
  while (idx < 4) {
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
      throw std::invalid_argument("Ipv4Address::parse: bad address '" + text + "'");
    }
    std::uint32_t v = 0;
    std::size_t digits = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      v = v * 10 + static_cast<std::uint32_t>(text[pos] - '0');
      ++pos;
      if (++digits > 3 || v > 255) {
        throw std::invalid_argument("Ipv4Address::parse: octet out of range in '" + text + "'");
      }
    }
    parts[idx++] = v;
    if (idx < 4) {
      if (pos >= text.size() || text[pos] != '.') {
        throw std::invalid_argument("Ipv4Address::parse: expected '.' in '" + text + "'");
      }
      ++pos;
    }
  }
  if (pos != text.size()) {
    throw std::invalid_argument("Ipv4Address::parse: trailing characters in '" + text + "'");
  }
  return Ipv4Address{static_cast<std::uint8_t>(parts[0]), static_cast<std::uint8_t>(parts[1]),
                     static_cast<std::uint8_t>(parts[2]), static_cast<std::uint8_t>(parts[3])};
}

std::string Ipv4Address::to_string() const {
  std::ostringstream os;
  os << ((bits_ >> 24) & 0xFF) << '.' << ((bits_ >> 16) & 0xFF) << '.'
     << ((bits_ >> 8) & 0xFF) << '.' << (bits_ & 0xFF);
  return os.str();
}

}  // namespace ddoshield::net

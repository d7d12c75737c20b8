#include "util/sim_time.hpp"

#include <cmath>
#include <sstream>

namespace ddoshield::util {

SimTime SimTime::from_seconds(double s) {
  return SimTime{static_cast<std::int64_t>(std::llround(s * 1e9))};
}

std::string SimTime::to_string() const {
  std::ostringstream os;
  const std::int64_t abs_ns = ns_ < 0 ? -ns_ : ns_;
  if (abs_ns >= 1'000'000'000) {
    os << to_seconds() << "s";
  } else if (abs_ns >= 1'000'000) {
    os << to_millis() << "ms";
  } else if (abs_ns >= 1'000) {
    os << static_cast<double>(ns_) * 1e-3 << "us";
  } else {
    os << ns_ << "ns";
  }
  return os.str();
}

}  // namespace ddoshield::util

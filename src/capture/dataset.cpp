#include "capture/dataset.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ddoshield::capture {

std::size_t Dataset::malicious_count() const {
  std::size_t n = 0;
  for (const auto& r : records_) n += r.is_malicious();
  return n;
}

std::size_t Dataset::benign_count() const { return records_.size() - malicious_count(); }

double Dataset::balance_ratio() const {
  const std::size_t benign = benign_count();
  if (benign == 0) return 0.0;
  return static_cast<double>(malicious_count()) / static_cast<double>(benign);
}

std::map<net::TrafficOrigin, std::size_t> Dataset::origin_histogram() const {
  std::map<net::TrafficOrigin, std::size_t> hist;
  for (const auto& r : records_) ++hist[r.origin];
  return hist;
}

void Dataset::save_csv(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("Dataset::save_csv: cannot open " + path);
  out << PacketRecord::csv_header() << '\n';
  for (const auto& r : records_) out << r.to_csv() << '\n';
  if (!out) throw std::runtime_error("Dataset::save_csv: write failed for " + path);
}

std::string Dataset::composition_summary() const {
  std::ostringstream os;
  os << "packets=" << size() << " malicious=" << malicious_count()
     << " benign=" << benign_count();
  os.setf(std::ios::fixed);
  os.precision(3);
  os << " ratio=" << balance_ratio() << "\n";
  for (const auto& [origin, count] : origin_histogram()) {
    os << "  " << net::to_string(origin) << ": " << count << "\n";
  }
  return os.str();
}

}  // namespace ddoshield::capture

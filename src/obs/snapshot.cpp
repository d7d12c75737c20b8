#include "obs/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace ddoshield::obs {

namespace {

// %.17g round-trips doubles; JSON has no inf/nan, so degrade those to 0.
void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void write_name(std::ostream& out, const std::string& name) {
  out << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

// One named section of histogram entries, shared by "histograms" and
// "latency": {"count", ..., "p99", "p999"} per entry.
template <typename Hist>
void write_hist_section(std::ostream& out, const std::map<std::string, Hist, std::less<>>& hists) {
  bool first = true;
  for (const auto& [name, h] : hists) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": {\"count\": " << h.count() << ", \"sum\": " << h.sum() << ", \"min\": " << h.min()
        << ", \"max\": " << h.max() << ", \"mean\": ";
    write_number(out, h.mean());
    out << ", \"p50\": ";
    write_number(out, h.p50());
    out << ", \"p90\": ";
    write_number(out, h.p90());
    out << ", \"p99\": ";
    write_number(out, h.p99());
    out << ", \"p999\": ";
    write_number(out, h.p999());
    out << "}";
  }
}

}  // namespace

void write_json_snapshot(const MetricsRegistry& registry, std::ostream& out) {
  out << "{\n  \"schema\": \"ddoshield-metrics-v2\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : registry.counters()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": " << c.value();
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : registry.gauges()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": {\"value\": ";
    write_number(out, g.value());
    out << ", \"high_water\": ";
    write_number(out, g.high_water());
    out << "}";
  }
  out << "\n  },\n  \"histograms\": {";
  write_hist_section(out, registry.histograms());
  out << "\n  },\n  \"latency\": {";
  write_hist_section(out, registry.latencies());
  out << "\n  }\n}\n";
}

bool write_json_snapshot_file(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream out{path};
  if (!out) return false;
  write_json_snapshot(registry, out);
  return out.good();
}

}  // namespace ddoshield::obs

#include "obs/snapshot.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/latency.hpp"

namespace ddoshield::obs {

namespace {

constexpr std::string_view kSchemaV1 = "ddoshield-metrics-v1";
constexpr std::string_view kSchemaV2 = "ddoshield-metrics-v2";

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

// The {"count"..."p99"[,"p999"]} body shared by histogram and latency
// entries. `with_p999` distinguishes schema generations.
void write_hist_body(std::ostream& out, std::uint64_t count, std::uint64_t sum,
                     std::uint64_t min, std::uint64_t max, double mean, double p50,
                     double p90, double p99, bool with_p999, double p999) {
  out << "{\"count\": " << count << ", \"sum\": " << sum << ", \"min\": " << min
      << ", \"max\": " << max << ", \"mean\": ";
  write_number(out, mean);
  out << ", \"p50\": ";
  write_number(out, p50);
  out << ", \"p90\": ";
  write_number(out, p90);
  out << ", \"p99\": ";
  write_number(out, p99);
  if (with_p999) {
    out << ", \"p999\": ";
    write_number(out, p999);
  }
  out << "}";
}

// ---------------------------------------------------------------------------
// Reader: a pointer scanner for the controlled format above. Not a general
// JSON parser — it accepts exactly the object shapes the writers produce
// (string keys, number / string / flat-object values, fixed section order).

struct Scanner {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r')) ++p;
  }
  bool lit(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    ws();
    return p < end && *p == c;
  }
  bool str(std::string& out) {
    if (!lit('"')) return false;
    out.clear();
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\' && p < end) c = *p++;
      out.push_back(c);
    }
    return lit('"');
  }
  bool num(double& out) {
    ws();
    char* after = nullptr;
    out = std::strtod(p, &after);
    if (after == p) return false;
    p = after;
    return true;
  }
  bool u64(std::uint64_t& out) {
    ws();
    char* after = nullptr;
    out = std::strtoull(p, &after, 10);
    if (after == p) return false;
    p = after;
    return true;
  }
};

// Parses {"key": <num>, ...} assigning fields of a SnapshotHistogram by
// key; unknown keys fail (the format is closed).
bool parse_hist_body(Scanner& s, SnapshotHistogram& h) {
  if (!s.lit('{')) return false;
  if (s.lit('}')) return true;
  std::string key;
  do {
    if (!s.str(key) || !s.lit(':')) return false;
    if (key == "count") {
      if (!s.u64(h.count)) return false;
    } else if (key == "sum") {
      if (!s.u64(h.sum)) return false;
    } else if (key == "min") {
      if (!s.u64(h.min)) return false;
    } else if (key == "max") {
      if (!s.u64(h.max)) return false;
    } else if (key == "mean") {
      if (!s.num(h.mean)) return false;
    } else if (key == "p50") {
      if (!s.num(h.p50)) return false;
    } else if (key == "p90") {
      if (!s.num(h.p90)) return false;
    } else if (key == "p99") {
      if (!s.num(h.p99)) return false;
    } else if (key == "p999") {
      if (!s.num(h.p999)) return false;
    } else {
      return false;
    }
  } while (s.lit(','));
  return s.lit('}');
}

bool parse_gauge_body(Scanner& s, SnapshotGauge& g) {
  if (!s.lit('{')) return false;
  if (s.lit('}')) return true;
  std::string key;
  do {
    if (!s.str(key) || !s.lit(':')) return false;
    if (key == "value") {
      if (!s.num(g.value)) return false;
    } else if (key == "high_water") {
      if (!s.num(g.high_water)) return false;
    } else {
      return false;
    }
  } while (s.lit(','));
  return s.lit('}');
}

// Parses a named section {"name": <entry>, ...} via a per-entry callback.
// A duplicated name is malformed input: the writers emit each instrument
// exactly once, and silently keeping one of the two values (what emplace
// used to do) hands the caller a snapshot that disagrees with its source.
template <typename Entry, typename Parse>
bool parse_section(Scanner& s, std::map<std::string, Entry>& into, Parse parse,
                   std::string* error) {
  if (!s.lit('{')) return false;
  if (s.lit('}')) return true;
  std::string name;
  do {
    if (!s.str(name) || !s.lit(':')) return false;
    Entry e{};
    if (!parse(s, e)) return false;
    if (!into.emplace(name, std::move(e)).second) {
      if (error) *error = "duplicate metric name: " + name;
      return false;
    }
  } while (s.lit(','));
  return s.lit('}');
}

bool expect_key(Scanner& s, std::string_view key) {
  std::string got;
  return s.str(got) && got == key && s.lit(':');
}

}  // namespace

void write_json_snapshot(const MetricsRegistry& registry, std::ostream& out,
                         const LatencyTracker* latency) {
  out << "{\n  \"schema\": \"" << kSchemaV2 << "\",\n  \"counters\": {";
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
  first = true;
  for (const auto& [name, h] : registry.histograms()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": ";
    write_hist_body(out, h.count(), h.sum(), h.min(), h.max(), h.mean(), h.p50(), h.p90(), h.p99(),
                    /*with_p999=*/true, h.p999());
  }
  out << "\n  },\n  \"latency\": {";
  first = true;
  if (latency) {
    for (const auto& [name, h] : latency->all()) {
      out << (first ? "\n    " : ",\n    ");
      first = false;
      write_name(out, name);
      out << ": ";
      write_hist_body(out, h.count(), h.sum(), h.min(), h.max(), h.mean(), h.p50(),
                      h.p90(), h.p99(), /*with_p999=*/true, h.p999());
    }
  }
  out << "\n  }\n}\n";
}

bool write_json_snapshot_file(const MetricsRegistry& registry, const std::string& path,
                              const LatencyTracker* latency) {
  std::ofstream out{path};
  if (!out) return false;
  write_json_snapshot(registry, out, latency);
  return out.good();
}

bool read_json_snapshot(std::istream& in, SnapshotData& out, std::string* error) {
  if (error) error->clear();
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Scanner s{text.data(), text.data() + text.size()};

  if (!s.lit('{')) return false;
  if (!expect_key(s, "schema") || !s.str(out.schema)) return false;
  if (out.schema != kSchemaV1 && out.schema != kSchemaV2) return false;
  const bool v2 = out.schema == kSchemaV2;

  if (!s.lit(',') || !expect_key(s, "counters")) return false;
  if (!parse_section(s, out.counters,
                     [](Scanner& sc, std::uint64_t& v) { return sc.u64(v); }, error))
    return false;
  if (!s.lit(',') || !expect_key(s, "gauges")) return false;
  if (!parse_section(s, out.gauges, parse_gauge_body, error)) return false;
  if (!s.lit(',') || !expect_key(s, "histograms")) return false;
  if (!parse_section(s, out.histograms, parse_hist_body, error)) return false;
  if (v2) {
    if (!s.lit(',') || !expect_key(s, "latency")) return false;
    if (!parse_section(s, out.latency, parse_hist_body, error)) return false;
  }
  return s.lit('}');
}

bool read_json_snapshot_file(const std::string& path, SnapshotData& out,
                             std::string* error) {
  std::ifstream in{path};
  if (!in) return false;
  return read_json_snapshot(in, out, error);
}

void write_json_snapshot(const SnapshotData& data, std::ostream& out) {
  const bool v2 = data.schema != kSchemaV1;
  out << "{\n  \"schema\": \"" << (v2 ? kSchemaV2 : kSchemaV1)
      << "\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : data.counters) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": " << v;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : data.gauges) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": {\"value\": ";
    write_number(out, g.value);
    out << ", \"high_water\": ";
    write_number(out, g.high_water);
    out << "}";
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : data.histograms) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": ";
    write_hist_body(out, h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p90, h.p99,
                    v2, h.p999);
  }
  if (!v2) {
    out << "\n  }\n}\n";
    return;
  }
  out << "\n  },\n  \"latency\": {";
  first = true;
  for (const auto& [name, h] : data.latency) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_name(out, name);
    out << ": ";
    write_hist_body(out, h.count, h.sum, h.min, h.max, h.mean, h.p50, h.p90, h.p99,
                    /*with_p999=*/true, h.p999);
  }
  out << "\n  }\n}\n";
}

}  // namespace ddoshield::obs

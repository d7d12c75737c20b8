// Test-side reader for the ddoshield-metrics JSON snapshots (v1 and v2).
//
// No production code reads a snapshot back; the suite does, to prove the
// committed goldens stay readable and that rewriting what was read
// reproduces the input byte for byte (%.17g doubles round-trip). It
// accepts exactly the shapes obs::write_json_snapshot produces (string
// keys, number / string / flat-object values, fixed section order); it is
// not a general JSON parser.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace ddoshield::obs {

struct SnapshotGauge {
  double value = 0.0;
  double high_water = 0.0;
};

struct SnapshotHistogram {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  // v2 only; 0 when absent
};

/// A snapshot read back from JSON. `schema` distinguishes v1 from v2;
/// `latency` is empty for v1 inputs.
struct SnapshotData {
  std::string schema;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, SnapshotGauge> gauges;
  std::map<std::string, SnapshotHistogram> histograms;
  std::map<std::string, SnapshotHistogram> latency;
};

namespace snapshot_reader_detail {

inline constexpr std::string_view kSchemaV1 = "ddoshield-metrics-v1";
inline constexpr std::string_view kSchemaV2 = "ddoshield-metrics-v2";

inline void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

inline void write_name(std::ostream& out, const std::string& name) {
  out << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

// One histogram or latency entry; `with_p999` distinguishes generations.
inline void write_hist_body(std::ostream& out, const SnapshotHistogram& h, bool with_p999) {
  out << "{\"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
      << ", \"max\": " << h.max << ", \"mean\": ";
  write_number(out, h.mean);
  out << ", \"p50\": ";
  write_number(out, h.p50);
  out << ", \"p90\": ";
  write_number(out, h.p90);
  out << ", \"p99\": ";
  write_number(out, h.p99);
  if (with_p999) {
    out << ", \"p999\": ";
    write_number(out, h.p999);
  }
  out << "}";
}

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

// Parses {"key": <num>, ...} by key; unknown keys fail (the format is
// closed).
inline bool parse_hist_body(Scanner& s, SnapshotHistogram& h) {
  if (!s.lit('{')) return false;
  if (s.lit('}')) return true;
  std::string key;
  do {
    if (!s.str(key) || !s.lit(':')) return false;
    bool ok = false;
    if (key == "count") ok = s.u64(h.count);
    else if (key == "sum") ok = s.u64(h.sum);
    else if (key == "min") ok = s.u64(h.min);
    else if (key == "max") ok = s.u64(h.max);
    else if (key == "mean") ok = s.num(h.mean);
    else if (key == "p50") ok = s.num(h.p50);
    else if (key == "p90") ok = s.num(h.p90);
    else if (key == "p99") ok = s.num(h.p99);
    else if (key == "p999") ok = s.num(h.p999);
    if (!ok) return false;
  } while (s.lit(','));
  return s.lit('}');
}

inline bool parse_gauge_body(Scanner& s, SnapshotGauge& g) {
  if (!s.lit('{')) return false;
  if (s.lit('}')) return true;
  std::string key;
  do {
    if (!s.str(key) || !s.lit(':')) return false;
    bool ok = false;
    if (key == "value") ok = s.num(g.value);
    else if (key == "high_water") ok = s.num(g.high_water);
    if (!ok) return false;
  } while (s.lit(','));
  return s.lit('}');
}

// Parses a named section {"name": <entry>, ...}. A duplicated name is
// malformed input: the writer emits each instrument exactly once, so a
// duplicate means the file disagrees with itself.
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

inline bool expect_key(Scanner& s, std::string_view key) {
  std::string got;
  return s.str(got) && got == key && s.lit(':');
}

}  // namespace snapshot_reader_detail

/// Parses a v1 or v2 snapshot. Returns false (and leaves `out` partially
/// filled) on malformed input, an unknown schema tag, or a duplicated
/// metric name within a section; `error` (when non-null) then describes a
/// duplicate-name failure and is empty for other malformations.
inline bool read_json_snapshot(std::istream& in, SnapshotData& out,
                               std::string* error = nullptr) {
  using namespace snapshot_reader_detail;
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

/// Re-serializes parsed data in its own schema generation: rewriting a
/// v1 or v2 input reproduces the original bytes.
inline void write_json_snapshot(const SnapshotData& data, std::ostream& out) {
  using namespace snapshot_reader_detail;
  const bool v2 = data.schema != kSchemaV1;
  out << "{\n  \"schema\": \"" << (v2 ? kSchemaV2 : kSchemaV1) << "\",\n  \"counters\": {";
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
  const auto section = [&out](const std::map<std::string, SnapshotHistogram>& hists,
                              bool with_p999) {
    bool first_entry = true;
    for (const auto& [name, h] : hists) {
      out << (first_entry ? "\n    " : ",\n    ");
      first_entry = false;
      write_name(out, name);
      out << ": ";
      write_hist_body(out, h, with_p999);
    }
  };
  out << "\n  },\n  \"histograms\": {";
  section(data.histograms, v2);
  if (v2) {
    out << "\n  },\n  \"latency\": {";
    section(data.latency, true);
  }
  out << "\n  }\n}\n";
}

}  // namespace ddoshield::obs

// JSON snapshot of a MetricsRegistry — the BENCH_*.json artifact format.
//
// Two schema generations (DESIGN.md §11 documents the migration):
//   v1 ("ddoshield-metrics-v1") — counters / gauges / histograms, with
//     p50/p90/p99 per histogram. Read-only: the reader accepts it and the
//     SnapshotData writer re-serializes it, so old v1 files (and the
//     committed v1 golden) round-trip byte for byte.
//   v2 ("ddoshield-metrics-v2") — v1 plus a "p999" field per histogram and
//     a "latency" section carrying the flight-recorder LatencyTracker
//     series (log-linear histograms with interpolated p50/p90/p99/p999).
//     Every registry snapshot is written in this schema.
//
//   {
//     "schema": "ddoshield-metrics-v2",
//     "counters":   { "<name>": <u64>, ... },
//     "gauges":     { "<name>": {"value": <f>, "high_water": <f>}, ... },
//     "histograms": { "<name>": {"count","sum","min","max","mean",
//                                "p50","p90","p99"[,"p999"]}, ... },
//     "latency":    { "<name>": {"count","sum","min","max","mean",
//                                "p50","p90","p99","p999"}, ... }   // v2
//   }
// Names are emitted sorted, so two snapshots of the same run diff cleanly.
// read_json_snapshot() accepts both generations, and rewriting what it
// read reproduces the input byte-for-byte (%.17g doubles round-trip).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace ddoshield::obs {

class LatencyTracker;

/// Writes the registry as v2 JSON. With a non-null `latency`, the
/// tracker's series are emitted in the "latency" section; a null tracker
/// emits an empty section (the schema is stable either way).
void write_json_snapshot(const MetricsRegistry& registry, std::ostream& out,
                         const LatencyTracker* latency = nullptr);

/// Convenience file form. Returns false if the file cannot be opened.
bool write_json_snapshot_file(const MetricsRegistry& registry, const std::string& path,
                              const LatencyTracker* latency = nullptr);

// --- parsed snapshot --------------------------------------------------------

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

/// Parses a v1 or v2 snapshot. Returns false (and leaves `out` partially
/// filled) on malformed input, an unknown schema tag, or a duplicated
/// metric name within a section — the writers emit each name once, so a
/// duplicate means the file disagrees with itself and neither value can
/// be trusted. When `error` is non-null it receives a description of a
/// duplicate-name failure (empty for other malformations).
bool read_json_snapshot(std::istream& in, SnapshotData& out, std::string* error = nullptr);
bool read_json_snapshot_file(const std::string& path, SnapshotData& out,
                             std::string* error = nullptr);

/// Re-serializes parsed data in its own schema generation: a v1 input
/// rewrites byte-identically to the original file.
void write_json_snapshot(const SnapshotData& data, std::ostream& out);

}  // namespace ddoshield::obs

// JSON snapshot of a MetricsRegistry — the BENCH_*.json artifact format.
//
// Two schema generations (DESIGN.md §11 documents the migration):
//   v1 ("ddoshield-metrics-v1") — counters / gauges / histograms, with
//     p50/p90/p99 per histogram. No longer written; the committed v1
//     golden stays readable by the test suite's reader.
//   v2 ("ddoshield-metrics-v2") — v1 plus a "p999" field per histogram and
//     a "latency" section carrying the registry's latency series
//     (log-linear histograms with interpolated p50/p90/p99/p999). Every
//     registry snapshot is written in this schema.
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
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace ddoshield::obs {

/// Writes the registry as v2 JSON, its latency series in the "latency"
/// section.
void write_json_snapshot(const MetricsRegistry& registry, std::ostream& out);

/// Convenience file form. Returns false if the file cannot be opened.
bool write_json_snapshot_file(const MetricsRegistry& registry, const std::string& path);

}  // namespace ddoshield::obs

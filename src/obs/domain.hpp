// Per-shard observation domain.
//
// Every instrumentation site in the testbed resolves its instruments
// through two thread-current singletons (MetricsRegistry, FlightRecorder).
// A sharded run gives each shard a private instance of both — installed
// while the shard's nodes/links are constructed (so the cached instrument
// pointers resolve into the shard's stores) and again on the shard's
// event-loop thread (so window-boundary flushes land there too). Hot paths
// keep their plain unsynchronised increments; nothing is shared across
// shard threads. After the run the coordinator merges every shard domain
// into the process-wide registry, so one snapshot covers the whole fleet
// exactly as a single-domain run would.
#pragma once

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ddoshield::obs {

/// One shard's private metrics (latency series included) + flight stores.
struct ObsDomain {
  ObsDomain() : flight{registry} {}
  ObsDomain(const ObsDomain&) = delete;
  ObsDomain& operator=(const ObsDomain&) = delete;

  /// Folds this domain into the process-wide registry.
  void merge_into_process_globals() {
    // set_current(nullptr) overrides are NOT active here: callers merge
    // from the coordinating thread after every shard thread has joined.
    registry.merge_into(MetricsRegistry::global());
  }

  MetricsRegistry registry;
  FlightRecorder flight;
};

/// RAII install of a domain as the calling thread's current observation
/// target; restores the previous (usually process-wide) domain on exit.
class ScopedObsDomain {
 public:
  explicit ScopedObsDomain(ObsDomain& domain)
      : prev_registry_{MetricsRegistry::set_current(&domain.registry)},
        prev_flight_{FlightRecorder::set_current(&domain.flight)} {}

  ~ScopedObsDomain() {
    FlightRecorder::set_current(prev_flight_);
    MetricsRegistry::set_current(prev_registry_);
  }

  ScopedObsDomain(const ScopedObsDomain&) = delete;
  ScopedObsDomain& operator=(const ScopedObsDomain&) = delete;

 private:
  MetricsRegistry* prev_registry_;
  FlightRecorder* prev_flight_;
};

}  // namespace ddoshield::obs

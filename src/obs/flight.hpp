// FlightRecorder: always-on, bounded ring of stage-stamped lifecycle
// events for sampled packets and detection windows — the testbed's black
// box. When something goes wrong (an invariant violation, a fatal signal),
// the last N events plus a final metrics snapshot are serialized to
// flight_dump.json so the crash site arrives with its own timeline.
//
// Clock domains (DESIGN.md §11): net-layer stages carry the simulated
// clock (deterministic, replayable); IDS/ML stages additionally carry a
// monotonic wall clock, because inference latency is real time the
// simulation never sees. A dump therefore distinguishes sim_ns (always
// comparable across a replay) from wall_ns (machine-dependent; zeroed when
// the recorder is configured with wall_clock=false, which makes dumps
// byte-reproducible for seeded testkit runs).
//
// Cost discipline: per-packet stages are recorded only for a 1-in-N
// uid-sampled subset (N a power of two, default 16), so the hot path pays
// one predictable branch per site when the packet is not sampled and a
// handful of stores when it is. Per-window stages are always recorded —
// windows close at 1 Hz, not per packet. The ring never allocates after
// configure(); old events are overwritten, counted in flight.dropped.
//
// Thread rules: record() is simulation-thread only, like the registry's
// instruments. The IDS stamps infer_submit/infer_complete around its
// inline scoring pass.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace ddoshield::obs {

class Counter;
class TraceRecorder;

/// Lifecycle stages a sampled packet or window passes through, in
/// pipeline order. Packet stages are keyed by packet uid; window stages
/// (kWindowClose onward) by window index.
enum class FlightStage : std::uint8_t {
  kNetEnqueue = 0,   // accepted into a link's drop-tail queue
  kLinkTx,           // serialization onto the wire began
  kLinkRx,           // delivered to the peer node
  kTcpDeliver,       // handed to the destination TCP stack
  kCaptureTap,       // observed by the capture tap (IDS ingress)
  kWindowClose,      // detection window sealed, features start
  kInferSubmit,      // design matrix handed to the scoring path
  kInferComplete,    // verdicts back from the scoring path
  kVerdict,          // window report finalized
};
constexpr std::size_t kFlightStageCount = 9;

std::string_view to_string(FlightStage stage);

struct FlightEvent {
  std::uint64_t id = 0;       // packet uid, or window index for window stages
  FlightStage stage = FlightStage::kNetEnqueue;
  std::int64_t sim_ns = 0;    // simulated clock
  std::int64_t wall_ns = 0;   // monotonic wall clock; 0 for net stages or
                              // when wall_clock is configured off
  std::uint64_t arg = 0;      // stage detail: wire bytes, window packets,
                              // batch ns, predicted-malicious count
};

struct FlightConfig {
  /// Ring slots; rounded up to a power of two. Also the maximum events a
  /// post-mortem dump can carry.
  std::size_t capacity = 4096;
  /// Per-packet stages record 1 in this many uids (power of two; 1 = all).
  std::uint32_t sample_every = 16;
  /// Stamp a monotonic wall clock on IDS/ML stages. Off = wall_ns is 0
  /// everywhere and dumps of seeded runs are byte-identical.
  bool wall_clock = true;
};

class MetricsRegistry;

class FlightRecorder {
 public:
  /// Resolves the recorder's own counters in the thread's current
  /// registry (the process-wide default outside sharded runs).
  FlightRecorder();
  /// Resolves the recorder's own counters in an explicit registry — used
  /// by per-shard observation domains, whose recorder must charge into the
  /// shard's registry rather than whichever registry is current.
  explicit FlightRecorder(MetricsRegistry& registry);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The current recorder for this thread: the process-wide default, or a
  /// shard-private override installed with set_current() (same discipline
  /// as MetricsRegistry — one recorder per shard keeps record() on the
  /// owning shard's thread, preserving the single-threaded rule above).
  static FlightRecorder& global();

  /// Installs `recorder` as this thread's current recorder (nullptr
  /// restores the process-wide default). Returns the previous override.
  static FlightRecorder* set_current(FlightRecorder* recorder);

  /// Applies a new geometry/sampling config and clears the ring.
  void configure(const FlightConfig& config);
  const FlightConfig& config() const { return config_; }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Sampling decision for per-packet stages: one branch when disabled.
  bool sampled(std::uint64_t uid) const {
    return enabled_ && (uid & sample_mask_) == 0;
  }

  /// Appends one event to the ring. Callers gate per-packet stages with
  /// sampled(uid) first; window stages gate on enabled() only.
  void record(FlightStage stage, std::uint64_t id, std::int64_t sim_ns,
              std::int64_t wall_ns = 0, std::uint64_t arg = 0);

  /// Monotonic wall nanoseconds, or 0 when configured wall_clock=false.
  std::int64_t wall_now_ns() const;

  std::size_t size() const;                 // events currently in the ring
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t overwritten() const { return overwritten_; }

  /// Copies the ring's events oldest-first (the post-mortem view).
  std::vector<FlightEvent> events_in_order() const;

  // --- post-mortem dumps ----------------------------------------------------

  /// Arms write-once dumping to `path`: the first dump_if_armed() call —
  /// the testkit invariant checker fires one on its first violation —
  /// writes the dump there. Pass "" to disarm.
  void arm_dump(std::string path);
  const std::string& dump_path() const { return dump_path_; }
  bool dumped() const { return dumped_; }

  /// Writes the dump to the armed path (once); returns false when unarmed,
  /// already dumped, or the file cannot be written.
  bool dump_if_armed(std::string_view reason);

  /// Serializes the last events + a final ddoshield-metrics-v2 snapshot of
  /// the thread's current registry (latency series included).
  void write_dump(std::ostream& out, std::string_view reason) const;
  bool write_dump_file(const std::string& path, std::string_view reason) const;

  /// Installs SIGSEGV/SIGABRT/SIGFPE/SIGILL/SIGBUS and std::terminate
  /// hooks that write the armed dump before re-raising. Best-effort: the
  /// handlers are not async-signal-safe in the strict sense, but a partial
  /// flight dump from a dying testbed beats none (documented in §11).
  void install_crash_handlers();

  /// Merges the ring into a TraceRecorder as instant events (category
  /// "flight", named "<stage> #<id>") so one Chrome timeline shows net,
  /// capture, and inference stages together. Events land at their sim_ns.
  void export_to_trace(TraceRecorder& trace) const;

 private:
  FlightConfig config_;
  bool enabled_ = false;
  std::uint64_t sample_mask_ = 15;
  std::vector<FlightEvent> ring_;
  std::size_t ring_mask_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::string dump_path_;
  bool dumped_ = false;

  Counter* m_recorded_;
  Counter* m_overwritten_;
  Counter* m_dumps_;
};

}  // namespace ddoshield::obs

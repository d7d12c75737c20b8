// Discrete-event simulation engine.
//
// A single Simulator instance owns the virtual clock and an ordered event
// queue. Components schedule closures; the engine pops them in (time,
// insertion-order) order, so simultaneous events run FIFO and runs are
// deterministic. Events can be cancelled through the returned handle —
// used heavily by TCP retransmission timers and churn schedules.
//
// The queue is a calendar queue: a wheel of "day" buckets, each a small
// binary heap, covering a sliding window of simulated time, with a
// spillover heap for events beyond the window. Near-term events (link
// deliveries, app ticks — the bulk of the load) pay O(log bucket_size)
// with bucket_size a few dozen, instead of O(log total_pending) against
// hundreds of thousands of pending events under flood. Every pop takes the
// global (when, seq) minimum, so the order is exactly that of a single
// binary heap keyed on (when, seq); tests/net_sim_test.cpp checks it
// against such a reference queue.
//
// Event closures are stored in SmallFn inline buffers and hot-path
// callers use post_at() (no cancellation token), so steady-state
// scheduling performs zero heap allocations; the owned PacketPool does
// the same for packets in flight (see packet_pool.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet_pool.hpp"
#include "util/sim_time.hpp"
#include "util/small_fn.hpp"

namespace ddoshield::obs {
class Counter;
class Gauge;
}

namespace ddoshield::net {

class Simulator;

/// Cancellation handle for a scheduled event. Copyable; cancelling twice
/// or cancelling after the event ran is a harmless no-op.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  bool pending() const;

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<bool> cancelled) : cancelled_{std::move(cancelled)} {}
  std::shared_ptr<bool> cancelled_;
};

class Simulator {
 public:
  /// Event closures up to this capture size run allocation-free.
  using Callback = util::SmallFn<void(), 64>;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  util::SimTime now() const { return now_; }

  /// Schedules fn to run `delay` after the current time. delay must be >= 0.
  EventHandle schedule(util::SimTime delay, Callback fn);

  /// Schedules fn at an absolute simulated time >= now().
  EventHandle schedule_at(util::SimTime when, Callback fn);

  /// Fire-and-forget variant: no cancellation handle, so no token
  /// allocation. The packet hot path (link deliveries) uses it.
  void post_at(util::SimTime when, Callback fn);

  /// Runs events until the queue drains or the clock passes `until`.
  /// Events stamped exactly at `until` do run. Advances the clock to
  /// `until` even if the queue drained earlier, so periodic samplers
  /// observe a consistent end time.
  void run_until(util::SimTime until);

  /// Runs until the event queue is fully drained.
  void run_all();

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t events_pending() const { return pending_; }
  /// Alias of events_pending(), the name the testbed probes use.
  std::size_t pending_events() const { return pending_; }
  /// Timestamp of the earliest pending event, or now() when the queue is
  /// empty. Non-const because the calendar's day hint may walk forward
  /// (amortised O(1)); used by the telemetry lookahead-slack probe.
  util::SimTime next_event_at() { return pending_ == 0 ? now_ : next_when(); }
  /// Deepest the event queue has ever been on this simulator.
  std::size_t queue_high_water() const { return queue_high_water_; }

  std::uint64_t events_cancelled() const { return events_cancelled_; }

  /// Times an executed event carried a timestamp earlier than the clock.
  /// Structurally impossible unless the queue ordering breaks; the testkit
  /// invariant checker asserts this stays zero.
  std::uint64_t time_regressions() const { return time_regressions_; }

  // --- calendar-queue introspection ---------------------------------------
  /// Wheel fast-forwards: the cursor jumped because every bucket drained.
  std::uint64_t calendar_rollovers() const { return calendar_.rollovers; }
  /// Events promoted from the spillover heap into wheel buckets.
  std::uint64_t calendar_migrations() const { return calendar_.migrations; }
  /// Deepest any single bucket has been.
  std::size_t calendar_bucket_high_water() const { return calendar_.bucket_high_water; }
  /// Events currently in the spillover heap (beyond the wheel's window).
  std::size_t calendar_overflow_pending() const { return calendar_.overflow.size(); }

  /// Hands out uids unique within this simulator (offset by the uid base).
  std::uint64_t next_packet_uid() { return packet_uid_base_ + ++packet_uid_; }

  /// Disjoint uid ranges for sharded runs: each shard's simulator gets
  /// base = shard_id << 48, so uids stay unique fleet-wide and a packet's
  /// originating shard is readable from its uid. Default 0 (unchanged
  /// behaviour for single-simulator runs).
  void set_packet_uid_base(std::uint64_t base) { packet_uid_base_ = base; }
  std::uint64_t packet_uid_base() const { return packet_uid_base_; }

  /// Free-list pool for packets in flight on this simulator's links.
  PacketPool& packet_pool() { return packet_pool_; }

 private:
  struct Event {
    util::SimTime when;
    std::uint64_t seq = 0;
    Callback fn;
    std::shared_ptr<bool> cancelled;  // null for post_at() events
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;  // min-heap on time
      return a.seq > b.seq;                          // FIFO among equals
    }
  };
  // Event heaps are plain vectors driven by std::push_heap/std::pop_heap:
  // std::priority_queue cannot release ownership of its top element, which
  // would force a copy per pop — untenable with move-only SmallFn closures.
  using EventHeap = std::vector<Event>;

  // Calendar geometry: 4096 one-millisecond days cover a ~4.1 s window —
  // wide enough that link serialization, app ticks, and first-shot RTO
  // timers all land on the wheel; only long retransmission backoffs and
  // scenario-scale timers spill over. Ordering is exact regardless of
  // geometry (every pop takes the global (when, seq) minimum), so these
  // constants are pure tuning.
  static constexpr std::int64_t kDayNs = 1'000'000;  // 1 ms per bucket
  static constexpr std::size_t kBuckets = 4096;      // power of two

  struct CalendarState {
    std::vector<EventHeap> buckets;  // each kept as a binary heap
    EventHeap overflow;              // also a heap: events beyond the window
    std::int64_t base_day = 0;  // wheel covers days [base_day, base_day + kBuckets)
    std::int64_t hint_day = 0;  // first possibly non-empty day (>= base_day)
    std::size_t buffered = 0;   // events currently in buckets
    std::uint64_t rollovers = 0;
    std::uint64_t migrations = 0;
    std::size_t bucket_high_water = 0;
  };

  static std::int64_t day_of(util::SimTime t) { return t.ns() / kDayNs; }

  static void heap_push(EventHeap& heap, Event ev);
  static Event heap_pop(EventHeap& heap);

  void insert(Event ev);
  /// Promotes spillover events now inside the wheel window into buckets.
  void migrate_overflow();
  /// Minimum pending event's timestamp; pending_ must be non-zero.
  util::SimTime next_when();
  void execute_next();
  void flush_stats();

  util::SimTime now_;
  CalendarState calendar_;
  std::size_t pending_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t packet_uid_ = 0;
  std::uint64_t packet_uid_base_ = 0;
  std::size_t queue_high_water_ = 0;
  std::uint64_t time_regressions_ = 0;

  PacketPool packet_pool_;

  // The per-event hot path touches only the plain tallies above (next_seq_
  // doubles as the scheduled count); deltas are published to the shared
  // registry counters at run boundaries so instrumentation stays off the
  // event loop. The registry accumulates across simulator instances.
  std::uint64_t flushed_scheduled_ = 0;
  std::uint64_t flushed_executed_ = 0;
  std::uint64_t flushed_cancelled_ = 0;
  std::uint64_t flushed_rollovers_ = 0;
  std::uint64_t flushed_migrations_ = 0;
  obs::Counter* m_scheduled_;
  obs::Counter* m_executed_;
  obs::Counter* m_cancelled_;
  obs::Counter* m_rollovers_;
  obs::Counter* m_migrations_;
  obs::Gauge* m_bucket_occupancy_;
};

}  // namespace ddoshield::net

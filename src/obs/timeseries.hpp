// Streaming telemetry: bounded in-memory time series + incremental export,
// and the testbed's one periodic collector.
//
// The end-of-run snapshot (snapshot.hpp) answers "how did the run end"; a
// TimeSeriesStore answers "what happened at t". A TelemetryCollector folds
// one or more MetricsRegistries (the process globals or every shard's
// private domain) on a fixed sim-time cadence into fixed-interval rings:
// counters are delta-encoded per tick (summed across registries, exactly
// the shard-merge semantics of MetricsRegistry::merge_into), gauges keep
// the worst level seen anywhere (merge = max), and histograms contribute
// one interpolated quantile sample over the bucket-wise sum. Probes —
// closures that read a live quantity (event-queue depth, link queue
// occupancy, active TCP connections, IDS window backlog) — land in named
// gauges of the probe registry (and Chrome trace counters when tracing is
// on) first, then the tick records them like any series.
//
// Export: ndjson ("ddoshield-timeseries-v1") — one JSON object per line,
// written incrementally and flushed every tick so a killed run still
// leaves usable data. Each tick emits one "domain":"sim" line (series that
// are pure functions of the seed — byte-identical across shard counts,
// CI-gated) and one "domain":"wall" line (wall-clock or
// shard-layout-dependent series, excluded from the equality contract by
// schema). SLO alerts append "t":"alert" lines tagged with the breached
// series' domain.
//
// Clock: start() is duck-typed on the scheduler (anything with now() and
// schedule(delay, fn), i.e. net::Simulator) so obs stays a leaf library
// under util and net can itself link against obs for instrumentation.
//
// Thread rules: the collector is driven from exactly one thread at a time
// — the flat simulator's event loop (via start()) or shard 0's thread
// inside a ShardedSim sync hook, where every other shard is parked at a
// barrier and reading their registries is race-free by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace ddoshield::obs {

class SloWatchdog;

/// How a series' samples are produced each tick.
enum class SeriesKind : std::uint8_t {
  kCounter,   // per-tick delta of a monotonic total
  kGauge,     // instantaneous level (last write wins)
  kQuantile,  // interpolated quantile of a merged histogram
};

/// Determinism domain of a series — part of the ndjson schema.
enum class SeriesDomain : std::uint8_t {
  kSim,   // pure function of the seed; byte-identical across shard counts
  kWall,  // wall-clock or shard-layout dependent; excluded from equality
};

std::string_view to_string(SeriesKind kind);
std::string_view to_string(SeriesDomain domain);

/// Fixed-interval ring of samples for one series. Ticks are dense and
/// strictly increasing (the collector appends every series every tick);
/// once the ring is full the oldest point is evicted.
class TimeSeries {
 public:
  TimeSeries(SeriesKind kind, SeriesDomain domain, std::size_t capacity);

  void append(std::uint64_t tick, double value);

  SeriesKind kind() const { return kind_; }
  SeriesDomain domain() const { return domain_; }
  std::size_t capacity() const { return values_.size(); }
  /// Points currently retained (<= capacity).
  std::size_t points() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Tick index of the oldest retained / newest point.
  std::uint64_t first_tick() const { return first_tick_; }
  std::uint64_t last_tick() const { return first_tick_ + count_ - 1; }
  double latest() const { return count_ ? at(count_ - 1) : 0.0; }
  double max_value() const { return max_value_; }
  /// Running sum of every appended value (counters: the cumulative total
  /// the deltas were carved from — survives ring eviction).
  double total() const { return total_; }

  /// i-th retained point, oldest first.
  double at(std::size_t i) const { return values_[(head_ + i) % values_.size()]; }

  template <typename Fn>  // fn(tick, value), oldest first
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) fn(first_tick_ + i, at(i));
  }

 private:
  SeriesKind kind_;
  SeriesDomain domain_;
  std::vector<double> values_;
  std::size_t head_ = 0;   // ring index of the oldest point
  std::size_t count_ = 0;  // retained points
  std::uint64_t first_tick_ = 0;
  double total_ = 0.0;
  double max_value_ = 0.0;
};

struct TimeSeriesConfig {
  /// Points retained per series (ring size). 4096 ticks at the default
  /// 100 ms interval is ~7 simulated minutes of full-rate history.
  std::size_t ring_capacity = 4096;
};

/// Named, bounded store of series. Series never move once created
/// (std::map node stability), so callers cache the returned references.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesConfig config = {});

  /// Finds or creates. Kind/domain are fixed at creation; a lookup with a
  /// conflicting kind throws (two producers fighting over one name is a
  /// wiring bug worth failing loudly on).
  TimeSeries& series(std::string_view name, SeriesKind kind, SeriesDomain domain);
  const TimeSeries* find(std::string_view name) const;
  const std::map<std::string, TimeSeries, std::less<>>& all() const { return series_; }
  std::size_t size() const { return series_.size(); }
  const TimeSeriesConfig& config() const { return config_; }

 private:
  TimeSeriesConfig config_;
  std::map<std::string, TimeSeries, std::less<>> series_;
};

// --- streaming collector -----------------------------------------------------

struct TelemetryConfig {
  /// Sim-time fold cadence; must be positive. In sharded runs the
  /// collector ticks from a ShardedSim sync hook with this period; in flat
  /// runs start() arms a self-rescheduling tick.
  util::SimTime interval = util::SimTime::millis(100);
  /// Last self-scheduled tick at or before this time (flat runs only);
  /// zero = unbounded, caller must drive the sim with run_until.
  util::SimTime until;
  std::size_t ring_capacity = 4096;
};

/// Folds registries + probes into a TimeSeriesStore once per tick, streams
/// ndjson, and drives an optional SloWatchdog. See file header for the
/// clock/thread discipline.
class TelemetryCollector {
 public:
  /// `probe_registry` is where probe gauges and the tick-overrun counter
  /// live; defaults to the thread's current registry at construction
  /// time. Throws std::invalid_argument for a non-positive interval.
  explicit TelemetryCollector(TelemetryConfig config = {});
  TelemetryCollector(TelemetryConfig config, MetricsRegistry& probe_registry);
  ~TelemetryCollector();

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  /// Registers a registry to fold each tick: once per shard domain, or the
  /// process globals in a flat run. Registries must outlive the collector.
  void add_source(const MetricsRegistry* registry);

  /// Counter series: per-tick delta of the metric summed across sources.
  void add_counter(std::string metric, SeriesDomain domain);
  /// Gauge series: max of the metric's value across sources (shard-merge
  /// semantics — "how bad is it anywhere right now").
  void add_gauge(std::string metric, SeriesDomain domain);
  /// Quantile series `<metric>.p<q*1000 trimmed>` (e.g. ".p99", ".p999"):
  /// quantile of the histogram's bucket-wise sum across sources.
  void add_quantile(std::string metric, double q, SeriesDomain domain);
  /// Probe series: `fn` runs each tick, lands in gauge `series` of the
  /// probe registry (and a trace counter when tracing is on), and is
  /// recorded under the same name.
  void add_probe(std::string series, SeriesDomain domain, std::function<double()> fn);

  /// Watchdog evaluated at the end of every tick; alerts stream into the
  /// ndjson file. Must outlive the collector.
  void set_watchdog(SloWatchdog* watchdog);
  SloWatchdog* watchdog() const { return watchdog_; }

  /// Opens the incremental ndjson stream ("ddoshield-timeseries-v1"); the
  /// header line is written on the first tick (when the series set is
  /// final) and every tick is flushed. Returns false if the file cannot
  /// be opened.
  bool open_ndjson(const std::string& path);
  const std::string& ndjson_path() const { return ndjson_path_; }

  /// One fold at sim time `now`. Called by the sync hook (sharded) or the
  /// self-scheduled tick (flat); tests call it directly.
  void tick(util::SimTime now);

  /// Flat-run arming: first tick at now() + interval, then every interval
  /// until stop() or config.until. The scheduler must outlive the
  /// collector.
  template <typename Sim>
  void start(Sim& sim) {
    running_ = true;
    arm(sim);
  }
  void stop() { running_ = false; }

  const TimeSeriesStore& store() const { return store_; }
  const TelemetryConfig& config() const { return config_; }
  std::uint64_t ticks() const { return ticks_; }
  util::SimTime last_tick_at() const { return last_tick_at_; }
  /// Ticks that landed more than one interval after the previous one — a
  /// tick was skipped or delayed (also counted in the probe registry's
  /// "obs.sampler.tick_overruns").
  std::uint64_t tick_overruns() const { return tick_overruns_; }

  /// Compact end-of-run summary: tick count, per-series last/peak, alert
  /// totals — the quickstart's `--timeseries` health report.
  std::string health_report() const;

 private:
  struct Selector {
    SeriesKind kind;
    std::string metric;   // registry instrument name
    double q = 0.0;       // kQuantile only
    TimeSeries* series;   // resolved at registration
  };
  struct Probe {
    std::string name;
    std::function<double()> fn;
    Gauge* gauge;         // probe's gauge in the probe registry
    TimeSeries* series;
  };

  template <typename Sim>
  void arm(Sim& sim) {
    if (!config_.until.is_zero() && sim.now() + config_.interval > config_.until) return;
    sim.schedule(config_.interval, [this, &sim] {
      if (!running_) return;
      tick(sim.now());
      arm(sim);
    });
  }

  double fold(const Selector& sel) const;
  void write_header();
  void write_sample_line(SeriesDomain domain, util::SimTime now);
  void write_alert_lines(std::size_t first_new, util::SimTime now);

  TelemetryConfig config_;
  TimeSeriesStore store_;
  MetricsRegistry& probe_registry_;
  Counter* m_overruns_;  // "obs.sampler.tick_overruns", resolved eagerly
  std::vector<const MetricsRegistry*> sources_;
  std::vector<Selector> selectors_;
  std::vector<Probe> probes_;
  std::map<std::string, std::uint64_t, std::less<>> counter_last_;  // delta state
  SloWatchdog* watchdog_ = nullptr;
  std::uint64_t ticks_ = 0;
  std::uint64_t tick_overruns_ = 0;
  util::SimTime last_tick_at_;
  bool running_ = false;

  std::string ndjson_path_;
  std::unique_ptr<std::ostream> ndjson_;
  bool header_written_ = false;
};

}  // namespace ddoshield::obs

#include "obs/timeseries.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace ddoshield::obs {

namespace {

constexpr std::string_view kSchema = "ddoshield-timeseries-v1";

// %.17g round-trips doubles and prints integral values without a decimal
// point, so counter deltas render as plain integers.
void format_number(char* buf, std::size_t n, double v) {
  if (!std::isfinite(v)) {
    std::snprintf(buf, n, "0");
    return;
  }
  std::snprintf(buf, n, "%.17g", v);
}

void write_number(std::ostream& out, double v) {
  char buf[40];
  format_number(buf, sizeof buf, v);
  out << buf;
}

void write_json_name(std::ostream& out, std::string_view name) {
  out << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

std::string_view to_string(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kQuantile: return "quantile";
  }
  return "?";
}

std::string_view to_string(SeriesDomain domain) {
  return domain == SeriesDomain::kSim ? "sim" : "wall";
}

// --- TimeSeries --------------------------------------------------------------

TimeSeries::TimeSeries(SeriesKind kind, SeriesDomain domain, std::size_t capacity)
    : kind_{kind}, domain_{domain}, values_(capacity == 0 ? 1 : capacity, 0.0) {}

void TimeSeries::append(std::uint64_t tick, double value) {
  if (count_ == 0) first_tick_ = tick;
  const std::size_t cap = values_.size();
  if (count_ == cap) {
    // Evict the oldest point; the ring stays dense.
    values_[head_] = value;
    head_ = (head_ + 1) % cap;
    ++first_tick_;
  } else {
    values_[(head_ + count_) % cap] = value;
    ++count_;
  }
  total_ += value;
  if (value > max_value_) max_value_ = value;
}

// --- TimeSeriesStore ---------------------------------------------------------

TimeSeriesStore::TimeSeriesStore(TimeSeriesConfig config) : config_{config} {}

TimeSeries& TimeSeriesStore::series(std::string_view name, SeriesKind kind,
                                    SeriesDomain domain) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string{name},
                         TimeSeries{kind, domain, config_.ring_capacity})
             .first;
  } else if (it->second.kind() != kind || it->second.domain() != domain) {
    throw std::logic_error("TimeSeriesStore: series '" + std::string{name} +
                           "' re-registered with a different kind/domain");
  }
  return it->second;
}

const TimeSeries* TimeSeriesStore::find(std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

// --- TelemetryCollector ------------------------------------------------------

TelemetryCollector::TelemetryCollector(TelemetryConfig config)
    : TelemetryCollector{config, MetricsRegistry::global()} {}

TelemetryCollector::TelemetryCollector(TelemetryConfig config,
                                       MetricsRegistry& probe_registry)
    : config_{config},
      store_{TimeSeriesConfig{config.ring_capacity}},
      probe_registry_{probe_registry},
      m_overruns_{&probe_registry.counter("obs.sampler.tick_overruns")} {
  if (config_.interval <= util::SimTime{}) {
    throw std::invalid_argument("TelemetryCollector: interval must be positive");
  }
}

TelemetryCollector::~TelemetryCollector() = default;

void TelemetryCollector::add_source(const MetricsRegistry* registry) {
  sources_.push_back(registry);
}

void TelemetryCollector::add_counter(std::string metric, SeriesDomain domain) {
  TimeSeries& s = store_.series(metric, SeriesKind::kCounter, domain);
  // Baseline the delta state at registration (sources already added):
  // the first tick reports activity since the run began, not whatever an
  // earlier run in this process left in a shared registry.
  std::uint64_t total = 0;
  for (const MetricsRegistry* reg : sources_) {
    auto it = reg->counters().find(metric);
    if (it != reg->counters().end()) total += it->second.value();
  }
  counter_last_[metric] = total;
  selectors_.push_back(Selector{SeriesKind::kCounter, std::move(metric), 0.0, &s});
}

void TelemetryCollector::add_gauge(std::string metric, SeriesDomain domain) {
  TimeSeries& s = store_.series(metric, SeriesKind::kGauge, domain);
  selectors_.push_back(Selector{SeriesKind::kGauge, std::move(metric), 0.0, &s});
}

void TelemetryCollector::add_quantile(std::string metric, double q, SeriesDomain domain) {
  // ".p99" for 0.99, ".p999" for 0.999, ".p50" for 0.5.
  const int permille = static_cast<int>(std::lround(q * 1000.0));
  char suffix[16];
  if (permille % 10 == 0)
    std::snprintf(suffix, sizeof suffix, ".p%d", permille / 10);
  else
    std::snprintf(suffix, sizeof suffix, ".p%d", permille);
  TimeSeries& s = store_.series(metric + suffix, SeriesKind::kQuantile, domain);
  selectors_.push_back(Selector{SeriesKind::kQuantile, std::move(metric), q, &s});
}

void TelemetryCollector::add_probe(std::string series, SeriesDomain domain,
                                   std::function<double()> fn) {
  TimeSeries& s = store_.series(series, SeriesKind::kGauge, domain);
  Gauge& g = probe_registry_.gauge(series);
  probes_.push_back(Probe{std::move(series), std::move(fn), &g, &s});
}

void TelemetryCollector::set_watchdog(SloWatchdog* watchdog) { watchdog_ = watchdog; }

bool TelemetryCollector::open_ndjson(const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!*out) return false;
  ndjson_path_ = path;
  ndjson_ = std::move(out);
  header_written_ = false;
  return true;
}

double TelemetryCollector::fold(const Selector& sel) const {
  switch (sel.kind) {
    case SeriesKind::kCounter: {
      std::uint64_t total = 0;
      for (const MetricsRegistry* reg : sources_) {
        auto it = reg->counters().find(sel.metric);
        if (it != reg->counters().end()) total += it->second.value();
      }
      auto& last = const_cast<TelemetryCollector*>(this)->counter_last_[sel.metric];
      const std::uint64_t delta = total >= last ? total - last : 0;
      last = total;
      return static_cast<double>(delta);
    }
    case SeriesKind::kGauge: {
      double v = 0.0;
      for (const MetricsRegistry* reg : sources_) {
        auto it = reg->gauges().find(sel.metric);
        if (it != reg->gauges().end() && it->second.value() > v) v = it->second.value();
      }
      return v;
    }
    case SeriesKind::kQuantile: {
      Histogram merged;
      for (const MetricsRegistry* reg : sources_) {
        auto it = reg->histograms().find(sel.metric);
        if (it != reg->histograms().end()) merged.merge_from(it->second);
      }
      return merged.count() == 0 ? 0.0 : merged.quantile(sel.q);
    }
  }
  return 0.0;
}

void TelemetryCollector::tick(util::SimTime now) {
  // A tick landing more than one interval after its predecessor means a
  // scheduled tick was skipped or delayed — invisible in the gauges
  // themselves (they just hold the last write), so it gets its own count.
  if (!last_tick_at_.is_zero() && now - last_tick_at_ > config_.interval) {
    ++tick_overruns_;
    m_overruns_->inc();
  }
  last_tick_at_ = now;
  // Probes first (gauges set, trace counters emitted), then the fold sees
  // their fresh values.
  auto& trace = TraceRecorder::global();
  const bool tracing = trace.enabled();
  for (const Probe& probe : probes_) {
    const double v = probe.fn();
    probe.gauge->set(v);
    if (tracing) trace.counter(probe.name, now, v);
  }
  const std::uint64_t tick = ticks_++;
  for (const Selector& sel : selectors_) sel.series->append(tick, fold(sel));
  for (const Probe& p : probes_) p.series->append(tick, p.gauge->value());

  std::size_t first_new = 0;
  std::size_t new_alerts = 0;
  if (watchdog_ != nullptr) {
    first_new = watchdog_->alerts().size();
    new_alerts = watchdog_->evaluate(store_, tick, now);
  }

  if (ndjson_) {
    if (!header_written_) write_header();
    write_sample_line(SeriesDomain::kSim, now);
    write_sample_line(SeriesDomain::kWall, now);
    if (new_alerts != 0) write_alert_lines(first_new, now);
    // Flushed every tick: a killed run leaves every completed tick on disk.
    ndjson_->flush();
  }
}

void TelemetryCollector::write_header() {
  header_written_ = true;
  std::ostream& out = *ndjson_;
  out << "{\"schema\":\"" << kSchema << "\",\"interval_ns\":" << config_.interval.ns()
      << ",\"ring_capacity\":" << store_.config().ring_capacity << ",\"series\":{";
  bool first = true;
  for (const auto& [name, series] : store_.all()) {
    if (!first) out << ",";
    first = false;
    write_json_name(out, name);
    out << ":{\"kind\":\"" << to_string(series.kind()) << "\",\"domain\":\""
        << to_string(series.domain()) << "\"}";
  }
  out << "}}\n";
}

void TelemetryCollector::write_sample_line(SeriesDomain domain, util::SimTime now) {
  std::ostream& out = *ndjson_;
  out << "{\"t\":\"sample\",\"domain\":\"" << to_string(domain)
      << "\",\"tick\":" << (ticks_ - 1) << ",\"t_ns\":" << now.ns() << ",\"values\":{";
  bool first = true;
  for (const auto& [name, series] : store_.all()) {
    if (series.domain() != domain || series.empty()) continue;
    if (series.last_tick() != ticks_ - 1) continue;  // registered later
    if (!first) out << ",";
    first = false;
    write_json_name(out, name);
    out << ":";
    write_number(out, series.latest());
  }
  out << "}}\n";
}

void TelemetryCollector::write_alert_lines(std::size_t first_new, util::SimTime now) {
  std::ostream& out = *ndjson_;
  const auto& alerts = watchdog_->alerts();
  for (std::size_t i = first_new; i < alerts.size(); ++i) {
    const SloAlert& a = alerts[i];
    out << "{\"t\":\"alert\",\"domain\":\"" << to_string(a.domain) << "\",\"tick\":" << a.tick
        << ",\"t_ns\":" << now.ns() << ",\"rule\":";
    write_json_name(out, a.rule);
    out << ",\"series\":";
    write_json_name(out, a.series);
    out << ",\"severity\":\"" << to_string(a.severity) << "\",\"value\":";
    write_number(out, a.value);
    out << ",\"threshold\":";
    write_number(out, a.threshold);
    out << "}\n";
  }
}

std::string TelemetryCollector::health_report() const {
  std::size_t sim_series = 0;
  for (const auto& [name, s] : store_.all())
    if (s.domain() == SeriesDomain::kSim) ++sim_series;
  char buf[256];
  std::snprintf(buf, sizeof buf, "telemetry: %llu ticks x %s; %zu series (%zu sim, %zu wall)",
                static_cast<unsigned long long>(ticks_), config_.interval.to_string().c_str(),
                store_.size(), sim_series, store_.size() - sim_series);
  std::string report = buf;
  if (!ndjson_path_.empty()) {
    report += "; ndjson: ";
    report += ndjson_path_;
  }
  report += '\n';
  for (const auto& [name, s] : store_.all()) {
    char last[40], peak[40];
    format_number(last, sizeof last, s.latest());
    format_number(peak, sizeof peak, s.max_value());
    std::snprintf(buf, sizeof buf, "  %-34s %-8s %-4s last=%s peak=%s\n", name.c_str(),
                  std::string{to_string(s.kind())}.c_str(),
                  std::string{to_string(s.domain())}.c_str(), last, peak);
    report += buf;
  }
  if (watchdog_ != nullptr) {
    std::snprintf(buf, sizeof buf, "slo: %zu alerts (%llu fatal) over %zu rules\n",
                  watchdog_->alerts().size(),
                  static_cast<unsigned long long>(watchdog_->fatal_alerts()),
                  watchdog_->rules().size());
    report += buf;
  }
  return report;
}

}  // namespace ddoshield::obs

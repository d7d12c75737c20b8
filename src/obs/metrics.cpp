#include "obs/metrics.hpp"

namespace ddoshield::obs {

template class BucketHistogram<Log2Buckets>;
template class BucketHistogram<LogLinearBuckets>;

namespace {
// Thread-local override: never set outside sharded runs, so the default
// path costs one TLS load on the (cold) instrument-resolution calls.
thread_local MetricsRegistry* t_current_registry = nullptr;

// Instruments never move once created (std::map node stability), so the
// returned reference stays valid as the registry grows.
template <typename Map>
typename Map::mapped_type& find_or_create(Map& instruments, std::string_view name) {
  auto it = instruments.find(name);
  if (it == instruments.end()) it = instruments.try_emplace(std::string{name}).first;
  return it->second;
}
}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  if (t_current_registry != nullptr) return *t_current_registry;
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry* MetricsRegistry::set_current(MetricsRegistry* registry) {
  MetricsRegistry* previous = t_current_registry;
  t_current_registry = registry;
  return previous;
}

void MetricsRegistry::merge_into(MetricsRegistry& dst) const {
  for (const auto& [name, c] : counters_) dst.counter(name).inc(c.value());
  for (const auto& [name, g] : gauges_) dst.gauge(name).merge_from(g);
  for (const auto& [name, h] : histograms_) dst.histogram(name).merge_from(h);
  for (const auto& [name, h] : latencies_) dst.latency(name).merge_from(h);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) { return find_or_create(gauges_, name); }

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

LogLinearHistogram& MetricsRegistry::latency(std::string_view name) {
  return find_or_create(latencies_, name);
}

}  // namespace ddoshield::obs

#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Tracer --------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_{enabled}, run_id_{run_id}, epoch_{Clock::now()} {}

std::int32_t Tracer::open(std::string name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  spans_.push_back({std::move(name), now, now, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  spans_.push_back({std::move(name), duration_cast<nanoseconds>(start - epoch_).count(),
                    duration_cast<nanoseconds>(end - epoch_).count(),
                    stack_.empty() ? -1 : stack_.back()});
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    ns += spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& child : spans_)
      if (child.parent == static_cast<std::int32_t>(i)) ns -= child.end_ns - child.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_json(const std::string& path, std::string_view workload) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"run_id\": \"" << run_id_ << "\", \"workload\": \"" << workload
      << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"run_id\": \"" << run_id_ << "\"}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- TimedClassifier -------------------------------------------------------------

void TimedClassifier::score_batch(const ml::DesignMatrix& x, ml::Verdicts& out) const {
  const Clock::time_point t0 = Clock::now();
  inner_.score_batch(x, out);
  const Clock::time_point t1 = Clock::now();
  rows_ += x.rows();
  score_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  tracer_.record("ml.score_batch." + inner_.name(), t0, t1);
}

// --- Report ----------------------------------------------------------------------

namespace {

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::to_json(const Options& opt) const {
  std::string j = "{\"workload\": " + quoted(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"seconds\": " + number(opt.seconds) + ", \"host\": {\"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"shards\": " + std::to_string(shards) +
                  ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                  ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
                  "}, \"attempted\": " + std::to_string(attempted) + ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    j += (i == 0 ? "" : ", ");
    j += "{\"name\": " + quoted(m.name) + ", \"value\": " + number(m.value) +
         ", \"unit\": " + quoted(m.unit) + ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  j += "], \"outputs\": {";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    j += (i == 0 ? "" : ", ");
    j += quoted(outputs[i].first) + ": " + number(outputs[i].second);
  }
  j += "}, \"check_failures\": [";
  for (std::size_t i = 0; i < check_failures.size(); ++i) {
    j += (i == 0 ? "" : ", ");
    j += quoted(check_failures[i]);
  }
  return j + "]}";
}

void EndToEnd::report_to(Report& report) const {
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.metric("pkts_per_s", median(pkts_per_s), "packets/s", pkts_per_s.size());
  report.metric("close_p50_ms", median(close_ms), "ms", close_ms.size());
  report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::size_t default_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

}  // namespace perfbench

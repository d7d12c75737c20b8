#include "obs/flight.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace ddoshield::obs {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

// The signal path re-raises with the default disposition after dumping, so
// the process still dies with the original signal (core files, CI exit
// codes, and ASan reports all keep working).
void crash_signal_handler(int sig) {
  char reason[32];
  std::snprintf(reason, sizeof reason, "signal %d", sig);
  FlightRecorder::global().dump_if_armed(reason);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void crash_terminate_handler() {
  FlightRecorder::global().dump_if_armed("std::terminate");
  if (g_prev_terminate) g_prev_terminate();
  std::abort();
}

}  // namespace

std::string_view to_string(FlightStage stage) {
  switch (stage) {
    case FlightStage::kNetEnqueue: return "net_enqueue";
    case FlightStage::kLinkTx: return "link_tx";
    case FlightStage::kLinkRx: return "link_rx";
    case FlightStage::kTcpDeliver: return "tcp_deliver";
    case FlightStage::kCaptureTap: return "capture_tap";
    case FlightStage::kWindowClose: return "window_close";
    case FlightStage::kInferSubmit: return "infer_submit";
    case FlightStage::kInferComplete: return "infer_complete";
    case FlightStage::kVerdict: return "verdict";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() : FlightRecorder(MetricsRegistry::global()) {}

FlightRecorder::FlightRecorder(MetricsRegistry& registry) {
  m_recorded_ = &registry.counter("flight.recorded_events");
  m_overwritten_ = &registry.counter("flight.overwritten_events");
  m_dumps_ = &registry.counter("flight.dumps");
  configure(FlightConfig{});
}

namespace {
thread_local FlightRecorder* t_current_recorder = nullptr;
}  // namespace

FlightRecorder& FlightRecorder::global() {
  if (t_current_recorder != nullptr) return *t_current_recorder;
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder* FlightRecorder::set_current(FlightRecorder* recorder) {
  FlightRecorder* previous = t_current_recorder;
  t_current_recorder = recorder;
  return previous;
}

void FlightRecorder::configure(const FlightConfig& config) {
  config_ = config;
  if (config_.capacity == 0) config_.capacity = 1;
  config_.capacity = round_up_pow2(config_.capacity);
  if (config_.sample_every == 0) config_.sample_every = 1;
  config_.sample_every =
      static_cast<std::uint32_t>(round_up_pow2(config_.sample_every));
  sample_mask_ = config_.sample_every - 1;
  ring_.assign(config_.capacity, FlightEvent{});
  ring_mask_ = config_.capacity - 1;
  recorded_ = 0;
  overwritten_ = 0;
}

void FlightRecorder::record(FlightStage stage, std::uint64_t id,
                            std::int64_t sim_ns, std::int64_t wall_ns,
                            std::uint64_t arg) {
  if (!enabled_) return;
  if (recorded_ >= ring_.size()) {
    ++overwritten_;
    m_overwritten_->inc();
  }
  FlightEvent& slot = ring_[recorded_ & ring_mask_];
  slot.id = id;
  slot.stage = stage;
  slot.sim_ns = sim_ns;
  slot.wall_ns = wall_ns;
  slot.arg = arg;
  ++recorded_;
  m_recorded_->inc();
}

std::int64_t FlightRecorder::wall_now_ns() const {
  if (!config_.wall_clock) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t FlightRecorder::size() const {
  return recorded_ < ring_.size() ? static_cast<std::size_t>(recorded_)
                                  : ring_.size();
}

std::vector<FlightEvent> FlightRecorder::events_in_order() const {
  std::vector<FlightEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t start = recorded_ - n;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) & ring_mask_]);
  return out;
}

void FlightRecorder::arm_dump(std::string path) {
  dump_path_ = std::move(path);
  dumped_ = false;
}

bool FlightRecorder::dump_if_armed(std::string_view reason) {
  if (dump_path_.empty() || dumped_) return false;
  dumped_ = true;  // write-once even if the write itself fails halfway
  return write_dump_file(dump_path_, reason);
}

void FlightRecorder::write_dump(std::ostream& out, std::string_view reason) const {
  out << "{\n  \"schema\": \"ddoshield-flight-dump-v1\",\n  \"reason\": ";
  write_escaped(out, reason);
  out << ",\n  \"config\": {\"capacity\": " << config_.capacity
      << ", \"sample_every\": " << config_.sample_every << ", \"wall_clock\": "
      << (config_.wall_clock ? "true" : "false") << "},\n  \"recorded\": "
      << recorded_ << ",\n  \"overwritten\": " << overwritten_
      << ",\n  \"events\": [";
  const auto events = events_in_order();
  bool first = true;
  for (const FlightEvent& e : events) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"id\": " << e.id << ", \"stage\": \"" << to_string(e.stage)
        << "\", \"sim_ns\": " << e.sim_ns << ", \"wall_ns\": " << e.wall_ns
        << ", \"arg\": " << e.arg << "}";
  }
  out << "\n  ],\n  \"metrics\": ";
  write_json_snapshot(MetricsRegistry::global(), out);
  out << "}\n";
}

bool FlightRecorder::write_dump_file(const std::string& path,
                                     std::string_view reason) const {
  std::ofstream out{path};
  if (!out) return false;
  write_dump(out, reason);
  m_dumps_->inc();
  return out.good();
}

void FlightRecorder::export_to_trace(TraceRecorder& trace) const {
  char name[64];
  for (const FlightEvent& e : events_in_order()) {
    const std::string_view stage = to_string(e.stage);
    std::snprintf(name, sizeof name, "%.*s #%llu", static_cast<int>(stage.size()),
                  stage.data(), static_cast<unsigned long long>(e.id));
    trace.instant(name, "flight", util::SimTime::nanos(e.sim_ns));
  }
}

void FlightRecorder::install_crash_handlers() {
  std::signal(SIGSEGV, crash_signal_handler);
  std::signal(SIGABRT, crash_signal_handler);
  std::signal(SIGFPE, crash_signal_handler);
  std::signal(SIGILL, crash_signal_handler);
#ifdef SIGBUS
  std::signal(SIGBUS, crash_signal_handler);
#endif
  g_prev_terminate = std::set_terminate(crash_terminate_handler);
}

}  // namespace ddoshield::obs

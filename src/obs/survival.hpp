// SurvivalMeter: what production cares about under attack.
//
// Detection accuracy says whether the IDS saw the flood; survival metrics
// say whether the service lived through it. The meter aggregates, over the
// benign client apps only: connection attempts vs. successes (SYN-flood
// backlog exhaustion shows up here first), request/download completions
// and failures, delivered application bytes (goodput), and the full
// request-latency distribution in a log-linear histogram (p50/p99 under
// congestion). Comparing report() between a mitigated and an unmitigated
// run of the same seed is the experiment EXPERIMENTS.md's "survival under
// attack" section records; the flight recorder's stage series attribute
// *where* the surviving latency went.
//
// The meter is process-global and off by default: while disabled every
// hook is a branch and no state changes, so runs that never enable it are
// byte-identical to builds that predate it. The histogram is meter-owned
// (not a registry latency series), so enabling it never changes metric
// snapshots either.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace ddoshield::obs {

struct SurvivalReport {
  std::uint64_t connects_attempted = 0;
  std::uint64_t connects_succeeded = 0;
  std::uint64_t connects_failed = 0;  // SYN retries exhausted
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t benign_bytes = 0;  // application payload delivered (goodput)
  std::uint64_t latency_samples = 0;
  double latency_mean_ns = 0.0;
  double latency_p50_ns = 0.0;
  double latency_p99_ns = 0.0;

  double connect_success_rate() const {
    return connects_attempted == 0
               ? 0.0
               : static_cast<double>(connects_succeeded) /
                     static_cast<double>(connects_attempted);
  }
  double request_success_rate() const {
    const std::uint64_t total = requests_completed + requests_failed;
    return total == 0 ? 0.0
                      : static_cast<double>(requests_completed) / static_cast<double>(total);
  }

  /// Multi-line human-readable block (quickstart's --survival-report).
  std::string summary() const;
};

class SurvivalMeter {
 public:
  /// The process-wide meter the benign client apps charge into.
  static SurvivalMeter& global();

  SurvivalMeter() = default;
  SurvivalMeter(const SurvivalMeter&) = delete;
  SurvivalMeter& operator=(const SurvivalMeter&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Zeroes all tallies (A/B runs re-arm between phases).
  void reset();

  // --- hooks (no-ops while disabled) ---------------------------------------
  void on_connect_attempt() {
    if (enabled_) ++connects_attempted_;
  }
  void on_connect_success() {
    if (enabled_) ++connects_succeeded_;
  }
  void on_connect_failure() {
    if (enabled_) ++connects_failed_;
  }
  void on_request_complete(std::uint64_t latency_ns, std::uint64_t bytes) {
    if (!enabled_) return;
    ++requests_completed_;
    benign_bytes_ += bytes;
    latency_ns_.observe(latency_ns);
  }
  void on_request_failure() {
    if (enabled_) ++requests_failed_;
  }
  /// Bytes delivered outside request/response exchanges (video streaming).
  void on_goodput_bytes(std::uint64_t bytes) {
    if (enabled_) benign_bytes_ += bytes;
  }

  SurvivalReport report() const;

 private:
  bool enabled_ = false;
  std::uint64_t connects_attempted_ = 0;
  std::uint64_t connects_succeeded_ = 0;
  std::uint64_t connects_failed_ = 0;
  std::uint64_t requests_completed_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t benign_bytes_ = 0;
  LogLinearHistogram latency_ns_;
};

}  // namespace ddoshield::obs

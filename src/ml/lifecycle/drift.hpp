// Streaming drift detection on per-window feature distributions.
//
// The serving-time counterpart of the StandardScaler fingerprint skew
// guard (preprocess.hpp): the guard catches *static* train/serve skew at
// model-load time by stamping the scaler parameters; this detector
// watches the same distribution *while serving*. The reference is the
// scaler's (mean, stddev) — the exact affine map the model was trained
// under, identified by the same FNV fingerprint — and each closed
// window's per-feature mean is scored as a normalized shift against it:
//
//   score_f = |mean_window,f − mean_ref,f| / stddev_ref,f
//
// i.e. "how many training standard deviations has feature f moved",
// smoothed with an EWMA so a single bursty window cannot fire the alarm.
// The alarm latches after `consecutive_windows` windows in which at least
// `alarm_features` features exceed the threshold.
//
// Everything here is a pure function of the window contents (sim-domain
// data), so drift scores — and the retrains they trigger — replay
// byte-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/design_matrix.hpp"
#include "ml/preprocess.hpp"

namespace ddoshield::ml::lifecycle {

struct DriftConfig {
  /// Windows used to learn the reference online when no scaler is given.
  std::size_t baseline_windows = 5;
  /// EWMA smoothing factor for the per-feature scores (1 = no smoothing).
  double ewma_alpha = 0.3;
  /// Normalized mean shift (in reference stddevs) that counts as drifted.
  double alarm_threshold = 3.0;
  /// Features over threshold for a window to count as drifted.
  std::size_t alarm_features = 3;
  /// Drifted windows in a row before the alarm latches.
  std::size_t consecutive_windows = 2;
  /// Windows with fewer rows than this neither score nor alarm.
  std::size_t min_rows = 8;
};

class DriftDetector {
 public:
  DriftDetector(std::size_t features, DriftConfig config);

  /// Seeds the reference from a fitted scaler — the trained model's own
  /// affine map, carrying the fingerprint the skew guard stamps.
  void set_reference(const StandardScaler& scaler);
  bool has_reference() const { return has_reference_; }
  /// FNV digest of the reference (mean, stddev) — equals the seeding
  /// scaler's fingerprint(), or a fresh digest for an online baseline.
  std::uint64_t reference_fingerprint() const;

  /// Feeds one closed window's raw feature rows. Returns true exactly
  /// when the alarm latches (edge, not level); call reset_alarm() after
  /// acting on it to re-arm.
  bool observe_window(const DesignMatrix& x);
  void reset_alarm();

  /// EWMA per-feature drift scores (reference stddev units).
  const std::vector<double>& scores() const { return scores_; }
  double max_score() const;
  double mean_score() const;

  std::uint64_t windows_observed() const { return windows_observed_; }
  std::uint64_t drifted_windows() const { return drifted_windows_; }
  std::uint64_t alarms() const { return alarms_; }

 private:
  void freeze_baseline();

  std::size_t features_;
  DriftConfig config_;

  bool has_reference_ = false;
  std::vector<double> ref_mean_;
  std::vector<double> ref_stddev_;

  // Online baseline accumulation (used only until has_reference_).
  std::vector<double> base_sum_;
  std::vector<double> base_sum_sq_;
  std::uint64_t base_rows_ = 0;
  std::uint64_t base_windows_ = 0;

  std::vector<double> scores_;
  std::size_t consecutive_ = 0;
  bool latched_ = false;
  std::uint64_t windows_observed_ = 0;
  std::uint64_t drifted_windows_ = 0;
  std::uint64_t alarms_ = 0;
};

}  // namespace ddoshield::ml::lifecycle

// Shared helpers for the experiment-reproduction benches (E1-E8).
//
// Each bench binary is self-contained: it builds the canonical scenario,
// runs the pipeline it needs, and prints the paper's table next to the
// measured values. Absolute numbers depend on the simulated substrate and
// the time-scaling documented in DESIGN.md; the *shape* is the contract.
#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/pipeline.hpp"
#include "util/logging.hpp"

namespace ddoshield::bench {

inline void banner(const char* experiment, const char* title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", experiment, title);
  std::printf("==========================================================\n");
}

/// Runs the canonical E1 generation (the paper's 10-minute capture,
/// time-scaled) and returns the dataset + infection stats.
inline core::GenerationResult canonical_generation() {
  std::printf("[setup] generating training capture (%.0f s simulated)...\n",
              core::training_scenario().duration.to_seconds());
  return core::run_generation(core::training_scenario(/*seed=*/1));
}

/// Trains the three models on a generation result (E2 prerequisites).
inline core::TrainedModels canonical_training(const core::GenerationResult& generation) {
  std::printf("[setup] training rf / kmeans / cnn on %zu packets...\n",
              generation.dataset.size());
  return core::train_all_models(generation.dataset);
}

inline const char* kModelNames[] = {"rf", "kmeans", "cnn"};

/// Median of `v`; 0 for an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The overhead benches' rep loop. Each rep runs every mode over the same
/// work, split into `slices` consecutive parts; `step(rep, mode, slice)`
/// runs one part of one mode and returns the wall seconds it took. Within
/// each slice every mode steps once, and which mode goes first rotates
/// with both the rep and the slice. Returns, for each mode m >= 1, the
/// per-rep ratios of mode m's throughput over mode 0's: mode 0's summed
/// seconds over mode m's. A slow phase of the host hits every mode of a
/// rep alike, so the median of these ratios resolves an overhead that
/// best-of or mean throughput across reps cannot; finer slices pair the
/// modes closer in time.
template <typename Step>
std::vector<std::vector<double>> paired_ratios(int reps, int modes, int slices, Step&& step) {
  std::vector<std::vector<double>> ratios(static_cast<std::size_t>(modes - 1));
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> seconds(static_cast<std::size_t>(modes), 0.0);
    for (int slice = 0; slice < slices; ++slice) {
      for (int k = 0; k < modes; ++k) {
        const int mode = (rep + slice + k) % modes;
        seconds[static_cast<std::size_t>(mode)] += step(rep, mode, slice);
      }
    }
    for (std::size_t m = 1; m < seconds.size(); ++m) {
      ratios[m - 1].push_back(seconds[m] > 0 ? seconds[0] / seconds[m] : 0.0);
    }
  }
  return ratios;
}

}  // namespace ddoshield::bench

// Nearest-centroid kernels behind KMeansDetector (private to src/ml and
// its tests).
//
// Every path computes a row's squared distance to a centroid the same
// way: acc = acc + (x_i - c_i)^2 from 0.0, dimensions ascending, multiply
// and add kept separate; the first strictly smaller distance wins, so an
// exact tie goes to the lowest centroid index and a NaN distance never
// wins. Each path is therefore bit-identical to the per-row loop, the
// argmin and the winning distance alike.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "ml/design_matrix.hpp"
#include "ml/preprocess.hpp"

namespace ddoshield::ml::kmeans_kernel {

inline double squared_distance(std::span<const double> a, std::span<const double> b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

struct Nearest {
  std::size_t index = 0;
  double distance = std::numeric_limits<double>::max();
};

/// The per-row scalar loop (KMeansDetector::nearest_cluster): one scaled
/// row against every centroid in ascending order.
Nearest nearest(std::span<const double> scaled_row,
                const std::vector<std::vector<double>>& centroids);

/// A block kernel: scales each row of x with `scaler` (transform_into,
/// so the ±3σ clamp holds and NaN passes through), then writes the row's
/// nearest of the k centroids (row-major k × dims in `centroids`) to
/// argmin[r] and, when `distance` is not null, its squared distance to
/// distance[r].
using BlockKernel = void (*)(const DesignMatrix& x, const StandardScaler& scaler,
                             std::span<const double> centroids, int* argmin,
                             double* distance);

/// Portable: 32-row blocks, centroid-outer, one row at a time.
void nearest_block_scalar(const DesignMatrix& x, const StandardScaler& scaler,
                          std::span<const double> centroids, int* argmin, double* distance);

/// AVX2: 8-row dims-major blocks, one row per lane, two 4-lane vectors
/// per centroid pass. Call only where cpu_has_avx2() holds.
void nearest_block_avx2(const DesignMatrix& x, const StandardScaler& scaler,
                        std::span<const double> centroids, int* argmin, double* distance);

bool cpu_has_avx2();

/// The kernel score_batch runs: AVX2 where the CPU has it, else scalar.
/// Chosen once, on first use.
BlockKernel block_kernel();

}  // namespace ddoshield::ml::kmeans_kernel

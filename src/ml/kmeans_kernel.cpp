#include "ml/kmeans_kernel.hpp"

#include <algorithm>
#include <memory>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ddoshield::ml::kmeans_kernel {

Nearest nearest(std::span<const double> scaled_row,
                const std::vector<std::vector<double>>& centroids) {
  Nearest best;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double d = squared_distance(scaled_row, centroids[c]);
    if (d < best.distance) {
      best.distance = d;
      best.index = c;
    }
  }
  return best;
}

[[gnu::aligned(64)]] void nearest_block_scalar(const DesignMatrix& x,
                                              const StandardScaler& scaler,
                                              std::span<const double> centroids,
                                              int* argmin, double* distance) {
  const std::size_t n = x.rows();
  const std::size_t dims = scaler.mean().size();
  const std::size_t k = centroids.size() / dims;

  constexpr std::size_t kRowBlock = 32;
  std::vector<double> scaled(kRowBlock * dims);
  std::vector<double> best(kRowBlock);
  std::vector<std::size_t> best_c(kRowBlock);

  for (std::size_t base = 0; base < n; base += kRowBlock) {
    const std::size_t bn = std::min(kRowBlock, n - base);
    for (std::size_t r = 0; r < bn; ++r) {
      scaler.transform_into(x.row(base + r), {scaled.data() + r * dims, dims});
    }
    std::fill(best.begin(), best.begin() + static_cast<std::ptrdiff_t>(bn),
              std::numeric_limits<double>::max());
    std::fill(best_c.begin(), best_c.begin() + static_cast<std::ptrdiff_t>(bn), 0);
    for (std::size_t c = 0; c < k; ++c) {
      const double* cen = centroids.data() + c * dims;
      for (std::size_t r = 0; r < bn; ++r) {
        const double* row = scaled.data() + r * dims;
        double d = 0.0;
        for (std::size_t i = 0; i < dims; ++i) {
          const double diff = row[i] - cen[i];
          d += diff * diff;
        }
        // Strict < keeps the per-row loop's first-minimum tie-break.
        if (d < best[r]) {
          best[r] = d;
          best_c[r] = c;
        }
      }
    }
    for (std::size_t r = 0; r < bn; ++r) {
      argmin[base + r] = static_cast<int>(best_c[r]);
      if (distance != nullptr) distance[base + r] = best[r];
    }
  }
}

#if defined(__x86_64__)

namespace {

constexpr std::size_t kBlockRows = 8;  // two 4-lane vectors

// The per-row loop over row-major centroids.
inline Nearest nearest_flat(std::span<const double> row, std::span<const double> centroids) {
  Nearest best;
  for (std::size_t c = 0; c * row.size() < centroids.size(); ++c) {
    const double d = squared_distance(row, centroids.subspan(c * row.size(), row.size()));
    if (d < best.distance) {
      best.distance = d;
      best.index = c;
    }
  }
  return best;
}

// One dims-major block (blk[i * 8 + lane], 64-byte aligned) against every
// centroid: lanes 0-3, plus lanes 4-7 when kTwo. Each lane is one row's
// scalar loop. The distance is a chain of dependent adds, so its latency,
// not memory, bounds the loop; the second vector's chain runs in its
// shadow. No fma in the target: the multiply must round before the add.
template <bool kTwo>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline void block_pass(
    const double* blk, std::size_t dims, const double* centroids, std::size_t k,
    double* best_out, double* index_out) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d best0 = _mm256_set1_pd(std::numeric_limits<double>::max());
  __m256d best1 = best0;
  __m256d index0 = zero;
  __m256d index1 = zero;
  for (std::size_t c = 0; c < k; ++c) {
    const double* cen = centroids + c * dims;
    __m256d acc0 = zero;
    __m256d acc1 = zero;
    for (std::size_t i = 0; i < dims; ++i) {
      const __m256d ci = _mm256_broadcast_sd(cen + i);
      const __m256d diff0 = _mm256_sub_pd(_mm256_load_pd(blk + i * kBlockRows), ci);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(diff0, diff0));
      if constexpr (kTwo) {
        const __m256d diff1 = _mm256_sub_pd(_mm256_load_pd(blk + i * kBlockRows + 4), ci);
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(diff1, diff1));
      }
    }
    // Ordered, quiet, strictly less: a NaN distance or an exact tie
    // leaves the earlier winner in place.
    const __m256d cv = _mm256_set1_pd(static_cast<double>(c));
    const __m256d lt0 = _mm256_cmp_pd(acc0, best0, _CMP_LT_OQ);
    best0 = _mm256_blendv_pd(best0, acc0, lt0);
    index0 = _mm256_blendv_pd(index0, cv, lt0);
    if constexpr (kTwo) {
      const __m256d lt1 = _mm256_cmp_pd(acc1, best1, _CMP_LT_OQ);
      best1 = _mm256_blendv_pd(best1, acc1, lt1);
      index1 = _mm256_blendv_pd(index1, cv, lt1);
    }
  }
  _mm256_storeu_pd(best_out, best0);
  _mm256_storeu_pd(index_out, index0);
  if constexpr (kTwo) {
    _mm256_storeu_pd(best_out + 4, best1);
    _mm256_storeu_pd(index_out + 4, index1);
  }
}

}  // namespace

// Pinned to a 64-byte boundary like KMeansDetector::score_batch, so the
// speed of every fleet window close's serial scoring loop does not depend
// on where unrelated edits place it.
[[gnu::aligned(64)]] __attribute__((target("avx2"))) void nearest_block_avx2(
    const DesignMatrix& x, const StandardScaler& scaler, std::span<const double> centroids,
    int* argmin, double* distance) {
  const std::size_t n = x.rows();
  const std::size_t dims = scaler.mean().size();
  const std::size_t k = centroids.size() / dims;

  // One scaled row plus one 64-byte-aligned dims-major block.
  std::vector<double> scratch(dims + kBlockRows * dims + kBlockRows);
  const std::span<double> row{scratch.data(), dims};
  void* blk_start = scratch.data() + dims;
  std::size_t blk_space = (kBlockRows * dims + kBlockRows) * sizeof(double);
  auto* blk = static_cast<double*>(
      std::align(64, kBlockRows * dims * sizeof(double), blk_start, blk_space));
  double best[kBlockRows] = {};
  double index[kBlockRows] = {};

  for (std::size_t base = 0; base < n; base += kBlockRows) {
    const std::size_t bn = std::min(kBlockRows, n - base);
    if (bn == 1) {
      // A lone row runs the per-row loop: one busy lane of four scored
      // bench_infer's batch-1 calls slower than the scalar 32-row loop.
      scaler.transform_into(x.row(base), row);
      const Nearest one = nearest_flat(row, centroids);
      argmin[base] = static_cast<int>(one.index);
      if (distance != nullptr) distance[base] = one.distance;
      continue;
    }
    // A partial last block of two to four rows runs one vector; the
    // lanes past bn hold zeros and their results are dropped.
    const std::size_t lanes = bn <= 4 ? 4 : kBlockRows;
    for (std::size_t r = 0; r < lanes; ++r) {
      if (r < bn) scaler.transform_into(x.row(base + r), row);
      for (std::size_t i = 0; i < dims; ++i) blk[i * kBlockRows + r] = r < bn ? row[i] : 0.0;
    }
    if (lanes == 4) {
      block_pass<false>(blk, dims, centroids.data(), k, best, index);
    } else {
      block_pass<true>(blk, dims, centroids.data(), k, best, index);
    }
    for (std::size_t r = 0; r < bn; ++r) {
      argmin[base + r] = static_cast<int>(index[r]);
      if (distance != nullptr) distance[base + r] = best[r];
    }
  }
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

#else  // no AVX2 outside x86-64: block_kernel() never selects it

void nearest_block_avx2(const DesignMatrix& x, const StandardScaler& scaler,
                        std::span<const double> centroids, int* argmin, double* distance) {
  nearest_block_scalar(x, scaler, centroids, argmin, distance);
}

bool cpu_has_avx2() { return false; }

#endif

BlockKernel block_kernel() {
  // A function-local static: the check runs on first use, after libgcc
  // has probed the CPU.
  static const BlockKernel kernel = cpu_has_avx2() ? nearest_block_avx2 : nearest_block_scalar;
  return kernel;
}

}  // namespace ddoshield::ml::kmeans_kernel

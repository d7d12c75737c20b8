#include "ml/cnn_kernel.hpp"

#include <algorithm>
#include <cstdint>

#include "ml/kmeans_kernel.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ddoshield::ml::cnn_kernel {

namespace {

constexpr std::size_t kMaxTileRows = 32;  // the AVX2 forward tile

// The first 64-byte boundary inside a Dense1Block's scratch.
double* align_tile(double* pt) {
  const auto addr = reinterpret_cast<std::uintptr_t>(pt);
  return reinterpret_cast<double*>((addr + 63) & ~std::uintptr_t{63});
}

// Transposes `bn` pooled rows into a tile of `lanes` lanes: row j's input
// i goes to pt[i * lanes + j], so each input's rows form contiguous
// lanes. Lanes bn..lanes-1 hold zeros; their outputs are dropped.
void fill_tile(const double* pooled, std::size_t flat, std::size_t bn, std::size_t lanes,
               double* pt) {
  for (std::size_t j = 0; j < bn; ++j) {
    const double* p_row = pooled + j * flat;
    for (std::size_t i = 0; i < flat; ++i) pt[i * lanes + j] = p_row[i];
  }
  for (std::size_t j = bn; j < lanes; ++j) {
    for (std::size_t i = 0; i < flat; ++i) pt[i * lanes + j] = 0.0;
  }
}

// How many vectors of `width` lanes a tile of `bn` rows runs: the fewest
// of 1, 2, 4 or 8 that cover it. A short tile never pays for a full one.
// (A lone row runs dense1_row() instead: one busy lane of an AVX2 vector
// was slower than the plain loop, and one of an SSE2 vector no faster.)
std::size_t tile_vectors(std::size_t bn, std::size_t width) {
  std::size_t vecs = 1;
  while (vecs * width < bn) vecs *= 2;
  return vecs;
}

// The scalar loops, from a given column or row on: the scalar kernels run
// them whole, and the SIMD kernels finish their tails with them.

void unit_grad_columns(std::size_t i0, const double* w, const double* pooled, std::size_t flat,
                       const std::uint32_t* active, const double* dz, std::size_t n_active,
                       double* g, double* d_pooled) {
  for (; i0 < flat; ++i0) {
    double acc = 0.0;
    for (std::size_t a = 0; a < n_active; ++a) {
      acc += dz[a] * pooled[active[a] * flat + i0];
      d_pooled[active[a] * flat + i0] += dz[a] * w[i0];
    }
    g[i0] = acc;
  }
}

void relu_gate_rows(std::size_t r, const double* z, const double* d_logit0,
                    const double* d_logit1, double w0, double w1, std::size_t rows,
                    double* relu2, double* dz, std::uint8_t* gate_open) {
  for (; r < rows; ++r) {
    const bool gate = !(z[r] <= 0.0);
    relu2[r] = z[r] > 0.0 ? z[r] : 0.0;
    dz[r] = gate ? (0.0 + d_logit0[r] * w0) + d_logit1[r] * w1 : 0.0;
    gate_open[r] = gate ? 1 : 0;
  }
}

void dense2_rows(std::size_t r, const double* w2, const double* b2, std::size_t hidden,
                 const double* zt, std::size_t rows, double* logits) {
  const double* w0 = w2;
  const double* w1 = w2 + hidden;
  for (; r < rows; ++r) {
    double l0 = b2[0], l1 = b2[1];
    for (std::size_t h = 0; h < hidden; ++h) {
      const double z = zt[h * rows + r];
      const double a = z > 0.0 ? z : 0.0;
      l0 += w0[h] * a;
      l1 += w1[h] * a;
    }
    logits[2 * r] = l0;
    logits[2 * r + 1] = l1;
  }
}

// One row's Dense(hidden) pre-activations, written to zt[h * rows]: the
// per-row dot products of Cnn1D::forward().
void dense1_row(const double* w, const double* bias, std::size_t hidden, std::size_t flat,
                const double* p, double* zt, std::size_t rows) {
  for (std::size_t h = 0; h < hidden; ++h) {
    const double* wh = w + h * flat;
    double sum = bias[h];
    for (std::size_t i = 0; i < flat; ++i) sum += wh[i] * p[i];
    zt[h * rows] = sum;
  }
}

// --- scalar -----------------------------------------------------------------

void dense1_block_scalar(const double* w, const double* bias, std::size_t hidden,
                         std::size_t flat, const double* pooled, std::size_t rows, double* zt,
                         double* /*pt*/) {
  for (std::size_t r = 0; r < rows; ++r) {
    dense1_row(w, bias, hidden, flat, pooled + r * flat, zt + r, rows);
  }
}

void dense1_unit_grad_scalar(const double* w, const double* pooled, std::size_t flat,
                             const std::uint32_t* active, const double* dz, std::size_t n_active,
                             double* g, double* d_pooled) {
  unit_grad_columns(0, w, pooled, flat, active, dz, n_active, g, d_pooled);
}

void relu_gate_scalar(const double* z, const double* d_logit0, const double* d_logit1, double w0,
                      double w1, std::size_t rows, double* relu2, double* dz,
                      std::uint8_t* gate_open) {
  relu_gate_rows(0, z, d_logit0, d_logit1, w0, w1, rows, relu2, dz, gate_open);
}

void dense2_block_scalar(const double* w2, const double* b2, std::size_t hidden,
                         const double* zt, std::size_t rows, double* logits) {
  dense2_rows(0, w2, b2, hidden, zt, rows, logits);
}

constexpr Kernels kScalar{"scalar", dense1_block_scalar, dense1_unit_grad_scalar,
                          relu_gate_scalar, dense2_block_scalar};

// --- SSE2 -------------------------------------------------------------------

#if defined(__SSE2__)

constexpr std::size_t kSse2TileRows = 16;

// One tile of kVecs 2-lane vectors through every hidden unit. Each lane is
// an independent bias-first, i-ascending chain of mul-then-add, so every
// output matches the scalar dot product bit for bit. An accumulator array
// unrolled by pragma stays in registers.
template <int kVecs>
[[gnu::always_inline]] inline void dense1_tile_sse2(const double* w, const double* bias,
                                                    std::size_t hidden, std::size_t flat,
                                                    const double* pt, std::size_t bn,
                                                    double* zt, std::size_t rows) {
  constexpr std::size_t kLanes = 2 * kVecs;
  for (std::size_t h = 0; h < hidden; ++h) {
    const double* wh = w + h * flat;
    __m128d a[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) a[v] = _mm_set1_pd(bias[h]);
    for (std::size_t i = 0; i < flat; ++i) {
      const __m128d wi = _mm_set1_pd(wh[i]);
      const double* col = pt + i * kLanes;
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) a[v] = _mm_add_pd(a[v], _mm_mul_pd(wi, _mm_load_pd(col + 2 * v)));
    }
    // Only the tile's bn rows are stored; padded lanes are dropped.
    double* out = zt + h * rows;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      const std::size_t j = 2 * static_cast<std::size_t>(v);
      if (j + 2 <= bn) {
        _mm_storeu_pd(out + j, a[v]);
      } else if (j < bn) {
        _mm_store_sd(out + j, a[v]);
      }
    }
  }
}

void dense1_block_sse2(const double* w, const double* bias, std::size_t hidden,
                       std::size_t flat, const double* pooled, std::size_t rows, double* zt,
                       double* pt) {
  pt = align_tile(pt);
  for (std::size_t r0 = 0; r0 < rows; r0 += kSse2TileRows) {
    const std::size_t bn = std::min(kSse2TileRows, rows - r0);
    if (bn == 1) {
      dense1_row(w, bias, hidden, flat, pooled + r0 * flat, zt + r0, rows);
      continue;
    }
    const std::size_t vecs = tile_vectors(bn, 2);
    fill_tile(pooled + r0 * flat, flat, bn, 2 * vecs, pt);
    switch (vecs) {
      case 1: dense1_tile_sse2<1>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      case 2: dense1_tile_sse2<2>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      case 4: dense1_tile_sse2<4>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      default: dense1_tile_sse2<8>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
    }
  }
}

// Columns in register blocks of 12 (the production flat is 72): a block
// keeps the unit's 12 weights and 12 gradient accumulators in registers
// for the whole sweep over the open rows.
void dense1_unit_grad_sse2(const double* w, const double* pooled, std::size_t flat,
                           const std::uint32_t* active, const double* dz, std::size_t n_active,
                           double* g, double* d_pooled) {
  std::size_t i0 = 0;
  for (; i0 + 12 <= flat; i0 += 12) {
    __m128d wv[6], acc[6];
#pragma GCC unroll 6
    for (int v = 0; v < 6; ++v) {
      wv[v] = _mm_loadu_pd(w + i0 + 2 * v);
      acc[v] = _mm_setzero_pd();
    }
    for (std::size_t a = 0; a < n_active; ++a) {
      const __m128d s = _mm_set1_pd(dz[a]);
      const double* p = pooled + active[a] * flat + i0;
      double* dp = d_pooled + active[a] * flat + i0;
#pragma GCC unroll 6
      for (int v = 0; v < 6; ++v) {
        acc[v] = _mm_add_pd(acc[v], _mm_mul_pd(s, _mm_loadu_pd(p + 2 * v)));
        _mm_storeu_pd(dp + 2 * v, _mm_add_pd(_mm_loadu_pd(dp + 2 * v), _mm_mul_pd(s, wv[v])));
      }
    }
#pragma GCC unroll 6
    for (int v = 0; v < 6; ++v) _mm_storeu_pd(g + i0 + 2 * v, acc[v]);
  }
  unit_grad_columns(i0, w, pooled, flat, active, dz, n_active, g, d_pooled);
}

// Two rows per compare mask; no branch on the gate.
void relu_gate_sse2(const double* z, const double* d_logit0, const double* d_logit1, double w0,
                    double w1, std::size_t rows, double* relu2, double* dz,
                    std::uint8_t* gate_open) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d vw0 = _mm_set1_pd(w0), vw1 = _mm_set1_pd(w1);
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const __m128d zr = _mm_loadu_pd(z + r);
    const __m128d gate = _mm_cmpnle_pd(zr, zero);  // !(z <= 0): NaN is open
    const __m128d back = _mm_add_pd(_mm_add_pd(zero, _mm_mul_pd(_mm_loadu_pd(d_logit0 + r), vw0)),
                                    _mm_mul_pd(_mm_loadu_pd(d_logit1 + r), vw1));
    _mm_storeu_pd(relu2 + r, _mm_and_pd(_mm_cmpgt_pd(zr, zero), zr));
    _mm_storeu_pd(dz + r, _mm_and_pd(gate, back));
    const int bits = _mm_movemask_pd(gate);
    gate_open[r] = static_cast<std::uint8_t>(bits & 1);
    gate_open[r + 1] = static_cast<std::uint8_t>(bits >> 1);
  }
  relu_gate_rows(r, z, d_logit0, d_logit1, w0, w1, rows, relu2, dz, gate_open);
}

// Four row pairs per pass: 8 independent accumulator chains instead of one
// row's two, each still summing its units in ascending order.
void dense2_block_sse2(const double* w2, const double* b2, std::size_t hidden,
                       const double* zt, std::size_t rows, double* logits) {
  const double* w0 = w2;
  const double* w1 = w2 + hidden;
  const __m128d zero = _mm_setzero_pd();
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    __m128d a[4], b[4];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      a[q] = _mm_set1_pd(b2[0]);
      b[q] = _mm_set1_pd(b2[1]);
    }
    for (std::size_t h = 0; h < hidden; ++h) {
      const __m128d c0 = _mm_set1_pd(w0[h]), c1 = _mm_set1_pd(w1[h]);
      const double* z = zt + h * rows + r;
#pragma GCC unroll 4
      for (int q = 0; q < 4; ++q) {
        const __m128d zq = _mm_loadu_pd(z + 2 * q);
        const __m128d relu = _mm_and_pd(_mm_cmpgt_pd(zq, zero), zq);
        a[q] = _mm_add_pd(a[q], _mm_mul_pd(c0, relu));
        b[q] = _mm_add_pd(b[q], _mm_mul_pd(c1, relu));
      }
    }
    // Lane j of (a[q], b[q]) is row r + 2q + j's (logit 0, logit 1).
    double* out = logits + 2 * r;
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      _mm_storeu_pd(out + 4 * q, _mm_unpacklo_pd(a[q], b[q]));
      _mm_storeu_pd(out + 4 * q + 2, _mm_unpackhi_pd(a[q], b[q]));
    }
  }
  dense2_rows(r, w2, b2, hidden, zt, rows, logits);
}

constexpr Kernels kSse2{"sse2", dense1_block_sse2, dense1_unit_grad_sse2, relu_gate_sse2,
                        dense2_block_sse2};

#endif  // __SSE2__

// --- AVX2 -------------------------------------------------------------------
//
// target("avx2") without fma: the multiply must round before the add.
// Pinned to 64-byte boundaries like the K-Means kernel, so their speed
// does not depend on where unrelated edits place them. Each kernel clears
// the upper ymm halves (vzeroupper) before it calls or returns to
// non-VEX code: GCC 12 omitted that for some of these functions, and
// the dirty upper state then slowed every later SSE instruction (a
// `paper` run's K-Means fit took 24 s instead of ~2.5 s).

#if defined(__x86_64__)

// One tile of kVecs 4-lane vectors through every hidden unit; the SSE2
// tile's chains, four per instruction. Eight vectors (32 rows) give eight
// chains in flight, which hides the add latency; sixteen rows would give
// four and stall on it.
template <int kVecs>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline void dense1_tile_avx2(
    const double* w, const double* bias, std::size_t hidden, std::size_t flat, const double* pt,
    std::size_t bn, double* zt, std::size_t rows) {
  constexpr std::size_t kLanes = 4 * kVecs;
  // The lanes of a tile's last, partly filled vector: lane k is stored
  // where k < bn % 4.
  const __m256i tail = _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(bn % 4)),
                                          _mm256_setr_epi64x(0, 1, 2, 3));
  for (std::size_t h = 0; h < hidden; ++h) {
    const double* wh = w + h * flat;
    __m256d a[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) a[v] = _mm256_broadcast_sd(bias + h);
    for (std::size_t i = 0; i < flat; ++i) {
      const __m256d wi = _mm256_broadcast_sd(wh + i);
      const double* col = pt + i * kLanes;
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) {
        a[v] = _mm256_add_pd(a[v], _mm256_mul_pd(wi, _mm256_load_pd(col + 4 * v)));
      }
    }
    // Only the tile's bn rows are stored; padded lanes are dropped.
    double* out = zt + h * rows;
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      const std::size_t j = 4 * static_cast<std::size_t>(v);
      if (j + 4 <= bn) {
        _mm256_storeu_pd(out + j, a[v]);
      } else if (j < bn) {
        _mm256_maskstore_pd(out + j, tail, a[v]);
      }
    }
  }
}

[[gnu::aligned(64)]] __attribute__((target("avx2"))) void dense1_block_avx2(
    const double* w, const double* bias, std::size_t hidden, std::size_t flat,
    const double* pooled, std::size_t rows, double* zt, double* pt) {
  pt = align_tile(pt);
  for (std::size_t r0 = 0; r0 < rows; r0 += kMaxTileRows) {
    const std::size_t bn = std::min(kMaxTileRows, rows - r0);
    if (bn == 1) {
      dense1_row(w, bias, hidden, flat, pooled + r0 * flat, zt + r0, rows);
      continue;
    }
    const std::size_t vecs = tile_vectors(bn, 4);
    fill_tile(pooled + r0 * flat, flat, bn, 4 * vecs, pt);
    switch (vecs) {
      case 1: dense1_tile_avx2<1>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      case 2: dense1_tile_avx2<2>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      case 4: dense1_tile_avx2<4>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
      default: dense1_tile_avx2<8>(w, bias, hidden, flat, pt, bn, zt + r0, rows); break;
    }
    _mm256_zeroupper();
  }
}

// kVecs 4-column vectors of one unit's weights and gradient accumulators,
// held in registers across the sweep over the open rows (ascending).
template <int kVecs>
[[gnu::always_inline]] __attribute__((target("avx2"))) inline void unit_grad_block_avx2(
    std::size_t i0, const double* w, const double* pooled, std::size_t flat,
    const std::uint32_t* active, const double* dz, std::size_t n_active, double* g,
    double* d_pooled) {
  __m256d wv[kVecs], acc[kVecs];
#pragma GCC unroll 6
  for (int v = 0; v < kVecs; ++v) {
    wv[v] = _mm256_loadu_pd(w + i0 + 4 * v);
    acc[v] = _mm256_setzero_pd();
  }
  for (std::size_t a = 0; a < n_active; ++a) {
    const __m256d s = _mm256_broadcast_sd(dz + a);
    const double* p = pooled + active[a] * flat + i0;
    double* dp = d_pooled + active[a] * flat + i0;
#pragma GCC unroll 6
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(s, _mm256_loadu_pd(p + 4 * v)));
      _mm256_storeu_pd(dp + 4 * v,
                       _mm256_add_pd(_mm256_loadu_pd(dp + 4 * v), _mm256_mul_pd(s, wv[v])));
    }
  }
#pragma GCC unroll 6
  for (int v = 0; v < kVecs; ++v) _mm256_storeu_pd(g + i0 + 4 * v, acc[v]);
}

// 24-column blocks (the production flat of 72 is three), then one
// 12-column step and the scalar tail for a flat that 24 does not divide.
[[gnu::aligned(64)]] __attribute__((target("avx2"))) void dense1_unit_grad_avx2(
    const double* w, const double* pooled, std::size_t flat, const std::uint32_t* active,
    const double* dz, std::size_t n_active, double* g, double* d_pooled) {
  std::size_t i0 = 0;
  for (; i0 + 24 <= flat; i0 += 24) {
    unit_grad_block_avx2<6>(i0, w, pooled, flat, active, dz, n_active, g, d_pooled);
  }
  if (i0 + 12 <= flat) {
    unit_grad_block_avx2<3>(i0, w, pooled, flat, active, dz, n_active, g, d_pooled);
    i0 += 12;
  }
  _mm256_zeroupper();
  unit_grad_columns(i0, w, pooled, flat, active, dz, n_active, g, d_pooled);
}

// Four rows per compare mask.
[[gnu::aligned(64)]] __attribute__((target("avx2"))) void relu_gate_avx2(
    const double* z, const double* d_logit0, const double* d_logit1, double w0, double w1,
    std::size_t rows, double* relu2, double* dz, std::uint8_t* gate_open) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vw0 = _mm256_set1_pd(w0), vw1 = _mm256_set1_pd(w1);
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const __m256d zr = _mm256_loadu_pd(z + r);
    const __m256d gate = _mm256_cmp_pd(zr, zero, _CMP_NLE_UQ);  // !(z <= 0): NaN is open
    const __m256d back =
        _mm256_add_pd(_mm256_add_pd(zero, _mm256_mul_pd(_mm256_loadu_pd(d_logit0 + r), vw0)),
                      _mm256_mul_pd(_mm256_loadu_pd(d_logit1 + r), vw1));
    _mm256_storeu_pd(relu2 + r, _mm256_and_pd(_mm256_cmp_pd(zr, zero, _CMP_GT_OQ), zr));
    _mm256_storeu_pd(dz + r, _mm256_and_pd(gate, back));
    const int bits = _mm256_movemask_pd(gate);
    for (int j = 0; j < 4; ++j) gate_open[r + j] = static_cast<std::uint8_t>((bits >> j) & 1);
  }
  _mm256_zeroupper();
  relu_gate_rows(r, z, d_logit0, d_logit1, w0, w1, rows, relu2, dz, gate_open);
}

// Sixteen rows per pass: four vectors per logit, eight chains in flight.
[[gnu::aligned(64)]] __attribute__((target("avx2"))) void dense2_block_avx2(
    const double* w2, const double* b2, std::size_t hidden, const double* zt, std::size_t rows,
    double* logits) {
  const double* w0 = w2;
  const double* w1 = w2 + hidden;
  const __m256d zero = _mm256_setzero_pd();
  std::size_t r = 0;
  for (; r + 16 <= rows; r += 16) {
    __m256d a[4], b[4];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      a[q] = _mm256_broadcast_sd(b2);
      b[q] = _mm256_broadcast_sd(b2 + 1);
    }
    for (std::size_t h = 0; h < hidden; ++h) {
      const __m256d c0 = _mm256_broadcast_sd(w0 + h), c1 = _mm256_broadcast_sd(w1 + h);
      const double* z = zt + h * rows + r;
#pragma GCC unroll 4
      for (int q = 0; q < 4; ++q) {
        const __m256d zq = _mm256_loadu_pd(z + 4 * q);
        const __m256d relu = _mm256_and_pd(_mm256_cmp_pd(zq, zero, _CMP_GT_OQ), zq);
        a[q] = _mm256_add_pd(a[q], _mm256_mul_pd(c0, relu));
        b[q] = _mm256_add_pd(b[q], _mm256_mul_pd(c1, relu));
      }
    }
    // Lane j of (a[q], b[q]) is row r + 4q + j's (logit 0, logit 1). The
    // unpacks pair them within each 128-bit half: lo = rows 0 and 2,
    // hi = rows 1 and 3; the permutes put the rows back in order.
    double* out = logits + 2 * r;
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
      const __m256d lo = _mm256_unpacklo_pd(a[q], b[q]);
      const __m256d hi = _mm256_unpackhi_pd(a[q], b[q]);
      _mm256_storeu_pd(out + 8 * q, _mm256_permute2f128_pd(lo, hi, 0x20));
      _mm256_storeu_pd(out + 8 * q + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }
  }
  _mm256_zeroupper();
  dense2_rows(r, w2, b2, hidden, zt, rows, logits);
}

constexpr Kernels kAvx2{"avx2", dense1_block_avx2, dense1_unit_grad_avx2, relu_gate_avx2,
                        dense2_block_avx2};

#endif  // __x86_64__

}  // namespace

std::size_t tile_scratch_size(std::size_t flat) {
  return flat * kMaxTileRows + 64 / sizeof(double);
}

const Kernels& scalar_kernels() { return kScalar; }

#if defined(__SSE2__)
const Kernels& sse2_kernels() { return kSse2; }
#else
const Kernels& sse2_kernels() { return kScalar; }  // this build has no SSE2
#endif

#if defined(__x86_64__)
const Kernels& avx2_kernels() { return kAvx2; }
#else
const Kernels& avx2_kernels() { return sse2_kernels(); }  // kernels() never selects it
#endif

const Kernels& kernels() {
  // A function-local static: the check runs on first use, after libgcc
  // has probed the CPU. One check serves the K-Means and CNN kernels.
  static const Kernels& selected =
      kmeans_kernel::cpu_has_avx2() ? avx2_kernels() : sse2_kernels();
  return selected;
}

}  // namespace ddoshield::ml::cnn_kernel

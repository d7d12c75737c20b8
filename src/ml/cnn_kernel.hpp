// Dense-layer block kernels behind Cnn1D (private to src/ml, its tests
// and bench_infer's kernel report).
//
// Every form computes each output as the scalar loop does: one chain per
// output, started from the bias (or from 0.0 for a gradient), terms added
// in ascending order, multiply and add kept separate. The SIMD forms run
// independent chains side by side, one per lane, and never reorder a
// chain, so each output is bit-identical to the scalar form's.
//
// Layouts (`rows` rows of a block):
//   w[h * flat + i]                  — Dense(hidden) weights, unit h, input i
//   pooled[r * flat + i]             — row r's flattened MaxPool output
//   zt[h * rows + r]                 — Dense(hidden) pre-activation, transposed
//   w2[c * hidden + h]               — Dense(2) weights, class c, unit h
//   logits[2 * r + c]                — Dense(2) output
#pragma once

#include <cstddef>
#include <cstdint>

namespace ddoshield::ml::cnn_kernel {

/// Dense(hidden) forward: zt[h * rows + r] = bias[h] + Σ_i w[h * flat + i]
/// · pooled[r * flat + i], i ascending. Hidden unit outer, rows inner:
/// each weight row is loaded once per row tile and reused across it. `pt`
/// is scratch of tile_scratch_size(flat) doubles.
using Dense1Block = void (*)(const double* w, const double* bias, std::size_t hidden,
                             std::size_t flat, const double* pooled, std::size_t rows,
                             double* zt, double* pt);

/// Dense(hidden) backward for one unit over the rows whose ReLU gate is
/// open (`active`, ascending, with their gradients `dz`):
///   g[i]            = Σ_a dz[a] · pooled[active[a] * flat + i]   (from 0.0)
///   d_pooled[r][i] += dz[a] · w[i]                               (one term)
/// Called for the units in ascending order, so each d_pooled element sums
/// its units in ascending order too.
using Dense1UnitGrad = void (*)(const double* w, const double* pooled, std::size_t flat,
                                const std::uint32_t* active, const double* dz,
                                std::size_t n_active, double* g, double* d_pooled);

/// Backward through Dense(2) and the ReLU gate for one unit over a block's
/// pre-activations z[r]: relu2[r] = z > 0 ? z : 0; the gate is open where
/// !(z <= 0), and there dz[r] = (0 + d_logit0[r]·w0) + d_logit1[r]·w1,
/// else +0; gate_open[r] is 1 or 0.
using ReluGate = void (*)(const double* z, const double* d_logit0, const double* d_logit1,
                          double w0, double w1, std::size_t rows, double* relu2, double* dz,
                          std::uint8_t* gate_open);

/// ReLU + Dense(2) over dense1's output: logit c of row r is
/// b2[c] + Σ_h w2[c * hidden + h] · relu(zt[h * rows + r]), h ascending.
using Dense2Block = void (*)(const double* w2, const double* b2, std::size_t hidden,
                             const double* zt, std::size_t rows, double* logits);

struct Kernels {
  const char* name;  // "avx2", "sse2" or "scalar"
  Dense1Block dense1_block;
  Dense1UnitGrad dense1_unit_grad;
  ReluGate relu_gate;
  Dense2Block dense2_block;
};

/// Doubles of scratch a Dense1Block needs: one transposed row tile of the
/// widest form, plus room to align it to 64 bytes.
std::size_t tile_scratch_size(std::size_t flat);

/// Plain loops: the fallback where SSE2 is missing, and the oracle.
const Kernels& scalar_kernels();
/// 2-lane SSE2: 16-row forward tiles in eight registers, 12-column
/// backward blocks, Dense(2) over 8 rows per pass.
const Kernels& sse2_kernels();
/// 4-lane AVX2: 32-row forward tiles in eight registers, 24-column
/// backward blocks, Dense(2) over 16 rows per pass. Run only where
/// kmeans_kernel::cpu_has_avx2() holds.
const Kernels& avx2_kernels();

/// The kernels Cnn1D runs: AVX2 where the CPU has it, else SSE2 where the
/// build targets it, else scalar. Chosen once, on first use.
const Kernels& kernels();

}  // namespace ddoshield::ml::cnn_kernel

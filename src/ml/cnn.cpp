#include "ml/cnn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ml/cnn_kernel.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ddoshield::ml {

// Parameter layouts:
//   conv_w_[f * kernel + k]           — filter f, tap k (same padding)
//   dense1_w_[h * flat + i]           — hidden unit h, flattened input i
//   dense2_w_[c * hidden + h]         — class c, hidden unit h
// Flattened conv output index: f * pooled_length() + p.
// The block layouts score_batch() and training share are in cnn_kernel.hpp.

namespace {

/// Adam state for one parameter tensor.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
  explicit AdamState(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
};

/// One Adam step from a tensor's summed batch gradient: each element's
/// gradient is first scaled by inv_batch, then the textbook moment
/// updates run. Two lanes per SSE2 instruction, each evaluating the
/// scalar tail's expression tree with separate mul and add and correctly
/// rounded sqrt and div, so every element matches the scalar loop bit for
/// bit. It has no AVX2 form: the loop is bound by the throughput of the
/// divide and square root, which 4-lane AVX2 does not raise on this
/// generation of x86 cores.
void adam_step(std::vector<double>& params, const std::vector<double>& grads, AdamState& state,
               const CnnConfig& cfg, double inv_batch, double lr_t) {
  const double b1 = cfg.beta1, c1 = 1.0 - cfg.beta1;
  const double b2 = cfg.beta2, c2 = 1.0 - cfg.beta2;
  double* p = params.data();
  const double* g = grads.data();
  double* m = state.m.data();
  double* v = state.v.data();
  const std::size_t n = params.size();
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128d inv = _mm_set1_pd(inv_batch), lr = _mm_set1_pd(lr_t), eps = _mm_set1_pd(1e-8);
  const __m128d vb1 = _mm_set1_pd(b1), vc1 = _mm_set1_pd(c1);
  const __m128d vb2 = _mm_set1_pd(b2), vc2 = _mm_set1_pd(c2);
  for (; i + 2 <= n; i += 2) {
    const __m128d gi = _mm_mul_pd(_mm_loadu_pd(g + i), inv);
    const __m128d mi = _mm_add_pd(_mm_mul_pd(vb1, _mm_loadu_pd(m + i)), _mm_mul_pd(vc1, gi));
    const __m128d vi =
        _mm_add_pd(_mm_mul_pd(vb2, _mm_loadu_pd(v + i)), _mm_mul_pd(_mm_mul_pd(vc2, gi), gi));
    _mm_storeu_pd(m + i, mi);
    _mm_storeu_pd(v + i, vi);
    const __m128d step = _mm_div_pd(_mm_mul_pd(lr, mi), _mm_add_pd(_mm_sqrt_pd(vi), eps));
    _mm_storeu_pd(p + i, _mm_sub_pd(_mm_loadu_pd(p + i), step));
  }
#endif
  for (; i < n; ++i) {
    const double gi = g[i] * inv_batch;
    m[i] = b1 * m[i] + c1 * gi;
    v[i] = b2 * v[i] + c2 * gi * gi;
    p[i] -= lr_t * m[i] / (std::sqrt(v[i]) + 1e-8);
  }
}

}  // namespace

Cnn1D::Cnn1D(CnnConfig config) : config_{config} {
  if (config_.kernel % 2 == 0) {
    throw std::invalid_argument("Cnn1D: kernel must be odd (same padding)");
  }
  if (config_.filters == 0 || config_.hidden == 0) {
    throw std::invalid_argument("Cnn1D: filters and hidden must be > 0");
  }
  // Training steps through the rows a batch at a time.
  if (config_.batch_size == 0) throw std::invalid_argument("Cnn1D: batch_size must be > 0");
}

void Cnn1D::forward(std::span<const double> scaled, Activations& act) const {
  const std::size_t d = input_dim_;
  const std::size_t f_count = config_.filters;
  const std::size_t k = config_.kernel;
  const std::size_t half = k / 2;
  const std::size_t p_len = pooled_length();
  const std::size_t flat = flat_size();
  const std::size_t h_count = config_.hidden;

  act.input.assign(scaled.begin(), scaled.end());
  act.conv.assign(f_count * d, 0.0);
  act.relu1.assign(f_count * d, 0.0);
  act.pooled.assign(f_count * p_len, 0.0);
  act.pool_argmax.assign(f_count * p_len, 0);
  act.dense1.assign(h_count, 0.0);
  act.relu2.assign(h_count, 0.0);
  act.logits.assign(2, 0.0);
  act.probs.assign(2, 0.0);

  // Conv1D, same padding.
  for (std::size_t f = 0; f < f_count; ++f) {
    for (std::size_t i = 0; i < d; ++i) {
      double sum = conv_b_[f];
      for (std::size_t t = 0; t < k; ++t) {
        const std::int64_t src = static_cast<std::int64_t>(i + t) - static_cast<std::int64_t>(half);
        if (src >= 0 && src < static_cast<std::int64_t>(d)) {
          sum += conv_w_[f * k + t] * scaled[static_cast<std::size_t>(src)];
        }
      }
      act.conv[f * d + i] = sum;
      act.relu1[f * d + i] = sum > 0.0 ? sum : 0.0;
    }
  }

  // MaxPool(2) with argmax memo for backprop.
  for (std::size_t f = 0; f < f_count; ++f) {
    for (std::size_t p = 0; p < p_len; ++p) {
      const std::size_t i0 = 2 * p;
      const std::size_t i1 = std::min(i0 + 1, d - 1);
      const double v0 = act.relu1[f * d + i0];
      const double v1 = act.relu1[f * d + i1];
      if (v0 >= v1) {
        act.pooled[f * p_len + p] = v0;
        act.pool_argmax[f * p_len + p] = f * d + i0;
      } else {
        act.pooled[f * p_len + p] = v1;
        act.pool_argmax[f * p_len + p] = f * d + i1;
      }
    }
  }

  // Dense(hidden) + ReLU.
  for (std::size_t h = 0; h < h_count; ++h) {
    double sum = dense1_b_[h];
    const double* w = &dense1_w_[h * flat];
    for (std::size_t i = 0; i < flat; ++i) sum += w[i] * act.pooled[i];
    act.dense1[h] = sum;
    act.relu2[h] = sum > 0.0 ? sum : 0.0;
  }

  // Dense(2) + softmax.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = dense2_b_[c];
    const double* w = &dense2_w_[c * h_count];
    for (std::size_t h = 0; h < h_count; ++h) sum += w[h] * act.relu2[h];
    act.logits[c] = sum;
  }
  const double mx = std::max(act.logits[0], act.logits[1]);
  const double e0 = std::exp(act.logits[0] - mx);
  const double e1 = std::exp(act.logits[1] - mx);
  act.probs[0] = e0 / (e0 + e1);
  act.probs[1] = e1 / (e0 + e1);
}

void Cnn1D::conv_pool_row(const double* in, double* conv, double* pooled,
                          std::size_t* argmax) const {
  const std::size_t d = input_dim_;
  const std::size_t k = config_.kernel;
  const std::size_t half = k / 2;
  const std::size_t p_len = pooled_length();
  for (std::size_t f = 0; f < config_.filters; ++f) {
    double* c = conv + f * d;
    for (std::size_t i = 0; i < d; ++i) {
      double sum = conv_b_[f];
      for (std::size_t t = 0; t < k; ++t) {
        const std::int64_t src = static_cast<std::int64_t>(i + t) - static_cast<std::int64_t>(half);
        if (src >= 0 && src < static_cast<std::int64_t>(d)) {
          sum += conv_w_[f * k + t] * in[static_cast<std::size_t>(src)];
        }
      }
      c[i] = sum;
    }
    for (std::size_t p = 0; p < p_len; ++p) {
      const std::size_t i0 = 2 * p;
      const std::size_t i1 = std::min(i0 + 1, d - 1);
      const double v0 = c[i0] > 0.0 ? c[i0] : 0.0;
      const double v1 = c[i1] > 0.0 ? c[i1] : 0.0;
      const bool first = v0 >= v1;  // forward()'s tie rule
      pooled[f * p_len + p] = first ? v0 : v1;
      argmax[f * p_len + p] = f * d + (first ? i0 : i1);
    }
  }
}

void Cnn1D::initialize(std::size_t input_dim, const StandardScaler& scaler) {
  if (!scaler.fitted() || scaler.mean().size() != input_dim) {
    throw std::invalid_argument("Cnn1D::initialize: scaler does not match input width");
  }
  util::Rng rng{config_.seed};
  input_dim_ = input_dim;
  scaler_ = scaler;

  const std::size_t k = config_.kernel;
  const std::size_t flat = flat_size();
  auto he_init = [&rng](std::vector<double>& w, std::size_t fan_in) {
    const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (double& v : w) v = rng.normal(0.0, stddev);
  };
  conv_w_.assign(config_.filters * k, 0.0);
  conv_b_.assign(config_.filters, 0.0);
  dense1_w_.assign(config_.hidden * flat, 0.0);
  dense1_b_.assign(config_.hidden, 0.0);
  dense2_w_.assign(2 * config_.hidden, 0.0);
  dense2_b_.assign(2, 0.0);
  he_init(conv_w_, k);
  he_init(dense1_w_, flat);
  he_init(dense2_w_, config_.hidden);
  trained_ = true;
}

std::vector<double> Cnn1D::parameters() const {
  std::vector<double> flat;
  flat.reserve(parameter_count());
  for (const auto* block : {&conv_w_, &conv_b_, &dense1_w_, &dense1_b_, &dense2_w_, &dense2_b_}) {
    flat.insert(flat.end(), block->begin(), block->end());
  }
  return flat;
}

void Cnn1D::set_parameters(std::span<const double> flat) {
  if (flat.size() != parameter_count()) {
    throw std::invalid_argument("Cnn1D::set_parameters: wrong length");
  }
  std::size_t pos = 0;
  for (auto* block : {&conv_w_, &conv_b_, &dense1_w_, &dense1_b_, &dense2_w_, &dense2_b_}) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + block->size()), block->begin());
    pos += block->size();
  }
  if (quantize_) build_quantized_tables();
}

void Cnn1D::fit(const DesignMatrix& x, const std::vector<int>& y) {
  if (x.rows() != y.size()) throw std::invalid_argument("Cnn1D::fit: X/y mismatch");
  if (x.empty()) throw std::invalid_argument("Cnn1D::fit: empty dataset");
  StandardScaler scaler;
  scaler.fit(x);
  initialize(x.cols(), scaler);
  train_epochs(x, y, config_.epochs);
}

void Cnn1D::train_epochs(const DesignMatrix& x, const std::vector<int>& y,
                         std::size_t epochs) {
  train_epochs_with(x, y, epochs,
                    util::Rng{config_.seed ^ (0x9E3779B97F4A7C15ULL + ++train_calls_)});
}

bool Cnn1D::incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                               util::Rng& rng) {
  if (!trained_ || x.empty() || x.rows() != y.size() || x.cols() != input_dim_) return false;
  train_epochs_with(x, y, config_.fine_tune_epochs, rng.fork("cnn-fine-tune"));
  return true;
}

void Cnn1D::adopt_deployment(const Classifier& reference) {
  if (const auto* cnn = dynamic_cast<const Cnn1D*>(&reference)) {
    // Training hyperparameters only: the architecture fields (filters,
    // kernel, hidden) were already restored by load() and must keep
    // describing the deserialized weights.
    config_.epochs = cnn->config_.epochs;
    config_.batch_size = cnn->config_.batch_size;
    config_.learning_rate = cnn->config_.learning_rate;
    config_.beta1 = cnn->config_.beta1;
    config_.beta2 = cnn->config_.beta2;
    config_.max_training_rows = cnn->config_.max_training_rows;
    config_.fine_tune_epochs = cnn->config_.fine_tune_epochs;
    config_.seed = cnn->config_.seed;
    set_quantized_inference(cnn->quantized_inference());
  }
}

void Cnn1D::train_epochs_with(const DesignMatrix& x, const std::vector<int>& y,
                              std::size_t epochs, util::Rng rng) {
  if (!trained_) throw std::logic_error("Cnn1D::train_epochs: initialize() or fit() first");
  if (x.rows() != y.size()) throw std::invalid_argument("Cnn1D::train_epochs: X/y mismatch");
  if (x.cols() != input_dim_) throw std::invalid_argument("Cnn1D::train_epochs: wrong width");
  if (x.empty() || epochs == 0) return;

  DesignMatrix sub_raw;
  std::vector<int> sub_y;
  subsample(x, y, config_.max_training_rows, rng, sub_raw, sub_y);
  const DesignMatrix data = scaler_.transform(sub_raw);
  const std::size_t n = data.rows();

  const std::size_t f_count = config_.filters;
  const std::size_t k = config_.kernel;
  const std::size_t flat = flat_size();
  const std::size_t h_count = config_.hidden;
  const std::size_t d = input_dim_;
  const std::size_t half = k / 2;
  const std::size_t max_rows = std::min(config_.batch_size, n);

  AdamState s_conv_w{conv_w_.size()}, s_conv_b{conv_b_.size()};
  AdamState s_d1_w{dense1_w_.size()}, s_d1_b{dense1_b_.size()};
  AdamState s_d2_w{dense2_w_.size()}, s_d2_b{dense2_b_.size()};

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  const cnn_kernel::Kernels& kern = cnn_kernel::kernels();
  // Per-batch blocks (layouts in cnn_kernel.hpp).
  std::vector<double> conv(max_rows * f_count * d);  // conv pre-activations
  std::vector<double> pooled(max_rows * flat);
  std::vector<std::size_t> argmax(max_rows * flat);  // into the row's conv block
  std::vector<double> pt(cnn_kernel::tile_scratch_size(flat));
  std::vector<double> zt(h_count * max_rows);
  std::vector<double> logits(2 * max_rows);
  std::vector<double> d_logit0(max_rows), d_logit1(max_rows);
  std::vector<double> d_pooled(max_rows * flat);
  // One hidden unit's column of the batch: ReLU output, gated gradient,
  // gate, and the open rows compacted in ascending order.
  std::vector<double> relu2(max_rows), dz(max_rows), dz_active(max_rows);
  std::vector<std::uint8_t> gate_open(max_rows);
  std::vector<std::uint32_t> active(max_rows);
  std::vector<double> d_relu1(f_count * d);

  std::vector<double> g_conv_w(conv_w_.size()), g_conv_b(conv_b_.size());
  std::vector<double> g_d1_w(dense1_w_.size()), g_d1_b(dense1_b_.size());
  std::vector<double> g_d2_w(dense2_w_.size()), g_d2_b(dense2_b_.size());

  // Every gradient element below is summed in the order of the
  // per-sample reference loop in tests/ml_cnn_train_test.cpp (batch rows
  // ascending; for d_pooled, hidden units ascending), with the same skips,
  // so training is bit-identical to it.
  std::uint64_t step = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      const std::size_t rows = end - start;
      const double inv_batch = 1.0 / static_cast<double>(rows);

      // --- forward ---------------------------------------------------------
      for (std::size_t r = 0; r < rows; ++r) {
        conv_pool_row(data.row(order[start + r]).data(), &conv[r * f_count * d],
                      &pooled[r * flat], &argmax[r * flat]);
      }
      kern.dense1_block(dense1_w_.data(), dense1_b_.data(), h_count, flat, pooled.data(), rows,
                        zt.data(), pt.data());
      kern.dense2_block(dense2_w_.data(), dense2_b_.data(), h_count, zt.data(), rows,
                        logits.data());

      // Softmax + cross-entropy: dL/dlogits, and the Dense(2) bias grad.
      g_d2_b[0] = 0.0;
      g_d2_b[1] = 0.0;
      for (std::size_t r = 0; r < rows; ++r) {
        const double l0 = logits[2 * r], l1 = logits[2 * r + 1];
        const double mx = std::max(l0, l1);
        const double e0 = std::exp(l0 - mx);
        const double e1 = std::exp(l1 - mx);
        double dl[2] = {e0 / (e0 + e1), e1 / (e0 + e1)};
        dl[sub_y[order[start + r]] != 0 ? 1 : 0] -= 1.0;
        d_logit0[r] = dl[0];
        d_logit1[r] = dl[1];
        g_d2_b[0] += dl[0];
        g_d2_b[1] += dl[1];
      }

      // --- Dense(2), ReLU2 and Dense(hidden) backward, one unit at a time --
      std::fill(d_pooled.begin(), d_pooled.begin() + static_cast<std::ptrdiff_t>(rows * flat),
                0.0);
      for (std::size_t h = 0; h < h_count; ++h) {
        // The gate is a compare mask (open where !(z <= 0), the
        // reference loop's skip test), so random ReLU signs cost no
        // mispredictions.
        kern.relu_gate(&zt[h * rows], d_logit0.data(), d_logit1.data(), dense2_w_[h],
                       dense2_w_[h_count + h], rows, relu2.data(), dz.data(), gate_open.data());
        // Row-ascending sums. A closed gate contributes an exact +0, which
        // leaves these accumulators (which start at +0) unchanged.
        double s0 = 0.0, s1 = 0.0, sb = 0.0;
        std::size_t n_active = 0;
        for (std::size_t r = 0; r < rows; ++r) {
          s0 += d_logit0[r] * relu2[r];
          s1 += d_logit1[r] * relu2[r];
          sb += dz[r];
          active[n_active] = static_cast<std::uint32_t>(r);
          dz_active[n_active] = dz[r];
          n_active += gate_open[r];
        }
        g_d2_w[h] = s0;
        g_d2_w[h_count + h] = s1;
        g_d1_b[h] = sb;
        kern.dense1_unit_grad(&dense1_w_[h * flat], pooled.data(), flat, active.data(),
                              dz_active.data(), n_active, &g_d1_w[h * flat], d_pooled.data());
      }

      // --- MaxPool, ReLU1 and Conv1D backward, per row ---------------------
      std::fill(g_conv_w.begin(), g_conv_w.end(), 0.0);
      std::fill(g_conv_b.begin(), g_conv_b.end(), 0.0);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* in = data.row(order[start + r]).data();
        const double* c = &conv[r * f_count * d];
        std::fill(d_relu1.begin(), d_relu1.end(), 0.0);
        for (std::size_t p = 0; p < flat; ++p) {
          d_relu1[argmax[r * flat + p]] += d_pooled[r * flat + p];
        }
        for (std::size_t f = 0; f < f_count; ++f) {
          for (std::size_t i2 = 0; i2 < d; ++i2) {
            if (c[f * d + i2] <= 0.0) continue;  // ReLU1 gate
            const double dc = d_relu1[f * d + i2];
            if (dc == 0.0) continue;
            g_conv_b[f] += dc;
            for (std::size_t t = 0; t < k; ++t) {
              const std::int64_t src =
                  static_cast<std::int64_t>(i2 + t) - static_cast<std::int64_t>(half);
              if (src >= 0 && src < static_cast<std::int64_t>(d)) {
                g_conv_w[f * k + t] += dc * in[static_cast<std::size_t>(src)];
              }
            }
          }
        }
      }

      // --- Adam on the batch-mean gradients --------------------------------
      ++step;
      const double bias_correction =
          std::sqrt(1.0 - std::pow(config_.beta2, static_cast<double>(step))) /
          (1.0 - std::pow(config_.beta1, static_cast<double>(step)));
      const double lr_t = config_.learning_rate * bias_correction;

      adam_step(conv_w_, g_conv_w, s_conv_w, config_, inv_batch, lr_t);
      adam_step(conv_b_, g_conv_b, s_conv_b, config_, inv_batch, lr_t);
      adam_step(dense1_w_, g_d1_w, s_d1_w, config_, inv_batch, lr_t);
      adam_step(dense1_b_, g_d1_b, s_d1_b, config_, inv_batch, lr_t);
      adam_step(dense2_w_, g_d2_w, s_d2_w, config_, inv_batch, lr_t);
      adam_step(dense2_b_, g_d2_b, s_d2_b, config_, inv_batch, lr_t);
    }
  }
  if (quantize_) build_quantized_tables();  // weights moved: re-quantize
}

std::vector<double> Cnn1D::predict_proba(std::span<const double> row) const {
  if (!trained_) throw std::logic_error("Cnn1D::predict_proba: not trained");
  const std::vector<double> scaled = scaler_.transform(row);
  Activations act;
  forward(scaled, act);
  return act.probs;
}

int Cnn1D::predict(std::span<const double> row) const {
  const auto probs = predict_proba(row);
  return probs[1] > probs[0] ? 1 : 0;
}

void Cnn1D::score_batch(const DesignMatrix& x, Verdicts& out) const {
  if (!trained_) throw std::logic_error("Cnn1D::score_batch: not trained");
  const std::size_t n = x.rows();
  const std::size_t d = input_dim_;
  const std::size_t flat = flat_size();
  const std::size_t h_count = config_.hidden;
  out.assign(n, 0);

  constexpr std::size_t kRowBlock = 32;
  const cnn_kernel::Kernels& kern = cnn_kernel::kernels();
  std::vector<double> scaled(d);
  std::vector<double> conv(config_.filters * d);  // one row's conv block
  std::vector<std::size_t> argmax(flat);           // (unused when scoring)
  std::vector<double> pooled(kRowBlock * flat);    // the im2col design matrix
  std::vector<double> pt(cnn_kernel::tile_scratch_size(flat));  // one tile, transposed
  std::vector<double> zt(h_count * kRowBlock);
  std::vector<double> logits(2 * kRowBlock);
  // int8 path scratch: quantized values live pre-widened to int16 so the
  // pmaddwd inner loop needs no per-iteration sign extension (the values
  // themselves stay in the int8 range [-127, 127]).
  std::vector<std::int16_t> aq(kRowBlock * flat);  // block activations
  std::vector<std::int16_t> w16(flat);             // one unit's weights
  std::vector<double> a_scales(kRowBlock);         // per-row scales

  for (std::size_t base = 0; base < n; base += kRowBlock) {
    const std::size_t bn = std::min(kRowBlock, n - base);

    // --- scale + Conv1D + ReLU + MaxPool(2), per row, scalar order -------
    for (std::size_t r = 0; r < bn; ++r) {
      scaler_.transform_into(x.row(base + r), scaled);
      conv_pool_row(scaled.data(), conv.data(), &pooled[r * flat], argmax.data());
    }

    if (quantize_) {
      // --- Dense(hidden), dynamically quantized (int8 deployment) --------
      // Per row: symmetric int8 quantization of the pooled activations
      // (scale = max|a| / 127, round-to-nearest), then an integer GEMV
      // against the pre-quantized per-unit int8 weight rows with int32
      // accumulation — |acc| ≤ 127·127·flat ≈ 1.2M, far from overflow.
      // Dequantize once per output: b + w_scale·a_scale·acc. The conv
      // front end and dense2 stay float, so quantization error enters in
      // exactly one layer. Deterministic (pure integer + one FP rounding
      // per output), but NOT bit-identical to the float path — callers
      // gate accuracy with the parity golden, not the equality gate.
      for (std::size_t r = 0; r < bn; ++r) {
        const double* p_row = pooled.data() + r * flat;
        std::int16_t* aq_row = aq.data() + r * flat;
        double amax = 0.0;
        for (std::size_t i = 0; i < flat; ++i) amax = std::max(amax, std::abs(p_row[i]));
        a_scales[r] = amax / 127.0;
        const double inv = amax > 0.0 ? 127.0 / amax : 0.0;
        for (std::size_t i = 0; i < flat; ++i) {
          aq_row[i] = static_cast<std::int16_t>(std::lrint(p_row[i] * inv));
        }
      }
      // Hidden unit outer, rows inner — same locality move as the float
      // GEMM: each weight row is widened once per block and reused across
      // every row in it, instead of re-streaming the whole H×flat table
      // per row. Integer addition is associative, so this reordering (and
      // the vector reassociation below) is exactly the scalar loop's
      // result — vectorizing here, unlike the float path, costs nothing
      // in determinism.
      for (std::size_t h = 0; h < h_count; ++h) {
        const std::int8_t* wq = &q_dense1_w_[h * flat];
        for (std::size_t i = 0; i < flat; ++i) w16[i] = wq[i];
        const double w_scale = q_dense1_scale_[h];
        const double b = dense1_b_[h];
        for (std::size_t r = 0; r < bn; ++r) {
          const std::int16_t* aq_row = aq.data() + r * flat;
          std::int32_t acc = 0;
          std::size_t i = 0;
#if defined(__SSE2__)
          // Both operands are pre-widened int8-range int16 values, so
          // pmaddwd is the whole kernel: 8 i16×i16 MACs pairwise-summed
          // into 4 i32 lanes per iteration. No overflow: each pmaddwd
          // lane is ≤ 2·127² and the i32 lane totals are ≤ 127²·flat.
          __m128i vacc = _mm_setzero_si128();
          for (; i + 8 <= flat; i += 8) {
            const __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w16.data() + i));
            const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(aq_row + i));
            vacc = _mm_add_epi32(vacc, _mm_madd_epi16(w, a));
          }
          alignas(16) std::int32_t lanes[4];
          _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vacc);
          acc = lanes[0] + lanes[1] + lanes[2] + lanes[3];
#endif
          for (; i < flat; ++i) {
            acc += static_cast<std::int32_t>(w16[i]) * static_cast<std::int32_t>(aq_row[i]);
          }
          zt[h * bn + r] = b + w_scale * a_scales[r] * static_cast<double>(acc);
        }
      }
    } else {
      kern.dense1_block(dense1_w_.data(), dense1_b_.data(), h_count, flat, pooled.data(), bn,
                        zt.data(), pt.data());
    }

    // --- ReLU + Dense(2) + softmax + argmax ------------------------------
    kern.dense2_block(dense2_w_.data(), dense2_b_.data(), h_count, zt.data(), bn, logits.data());
    for (std::size_t r = 0; r < bn; ++r) {
      const double l0 = logits[2 * r], l1 = logits[2 * r + 1];
      if (quantize_) {
        out[base + r] = l1 > l0 ? 1 : 0;  // softmax is monotone; argmax on logits
        continue;
      }
      // Same softmax expressions as forward(): exp rounding can merge
      // nearly-equal logits, so comparing probabilities (not logits) keeps
      // the verdict bit-identical to predict().
      const double mx = std::max(l0, l1);
      const double e0 = std::exp(l0 - mx);
      const double e1 = std::exp(l1 - mx);
      const double p0 = e0 / (e0 + e1);
      const double p1 = e1 / (e0 + e1);
      out[base + r] = p1 > p0 ? 1 : 0;
    }
  }
}

void Cnn1D::set_quantized_inference(bool enabled) {
  quantize_ = enabled;
  if (enabled && trained_ && q_dense1_w_.empty()) build_quantized_tables();
  if (!enabled) {
    q_dense1_w_.clear();
    q_dense1_w_.shrink_to_fit();
    q_dense1_scale_.clear();
    q_dense1_scale_.shrink_to_fit();
  }
}

void Cnn1D::build_quantized_tables() {
  const std::size_t flat = flat_size();
  const std::size_t h_count = config_.hidden;
  q_dense1_w_.assign(h_count * flat, 0);
  q_dense1_scale_.assign(h_count, 1.0);
  for (std::size_t h = 0; h < h_count; ++h) {
    const double* w = &dense1_w_[h * flat];
    double wmax = 0.0;
    for (std::size_t i = 0; i < flat; ++i) wmax = std::max(wmax, std::abs(w[i]));
    const double scale = wmax > 0.0 ? wmax / 127.0 : 1.0;
    const double inv = wmax > 0.0 ? 127.0 / wmax : 0.0;
    q_dense1_scale_[h] = scale;
    std::int8_t* q = &q_dense1_w_[h * flat];
    for (std::size_t i = 0; i < flat; ++i) {
      q[i] = static_cast<std::int8_t>(std::lrint(w[i] * inv));
    }
  }
}

std::uint64_t Cnn1D::quantized_parameter_bytes() const {
  return q_dense1_w_.size() * sizeof(std::int8_t) + q_dense1_scale_.size() * sizeof(double);
}

void Cnn1D::save(util::ByteWriter& w) const {
  scaler_.save(w);
  w.put_u64(input_dim_);
  w.put_u64(config_.filters);
  w.put_u64(config_.kernel);
  w.put_u64(config_.hidden);
  w.put_f64_span(conv_w_);
  w.put_f64_span(conv_b_);
  w.put_f64_span(dense1_w_);
  w.put_f64_span(dense1_b_);
  w.put_f64_span(dense2_w_);
  w.put_f64_span(dense2_b_);
}

void Cnn1D::load(util::ByteReader& r) {
  StandardScaler scaler;
  scaler.load(r);
  const std::uint64_t input_dim = r.get_u64();
  const std::uint64_t filters = r.get_u64();
  const std::uint64_t kernel = r.get_u64();
  const std::uint64_t hidden = r.get_u64();
  std::vector<double> conv_w = r.get_f64_vector();
  std::vector<double> conv_b = r.get_f64_vector();
  std::vector<double> dense1_w = r.get_f64_vector();
  std::vector<double> dense1_b = r.get_f64_vector();
  std::vector<double> dense2_w = r.get_f64_vector();
  std::vector<double> dense2_b = r.get_f64_vector();

  // The constructor's invariants, the scaler's width, then every tensor
  // length — each product checked for overflow before it is compared, so
  // a crafted file cannot wrap a length into agreement.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto fits = [](std::uint64_t a, std::uint64_t b) { return b == 0 || a <= kMax / b; };
  const std::uint64_t pooled = input_dim / 2 + input_dim % 2;
  if (kernel % 2 == 0 || filters == 0 || hidden == 0 || input_dim == 0 ||
      input_dim != scaler.mean().size() || !fits(filters, kernel) || !fits(filters, pooled) ||
      !fits(hidden, filters * pooled) || !fits(2, hidden) ||
      conv_w.size() != filters * kernel || conv_b.size() != filters ||
      dense1_w.size() != hidden * (filters * pooled) || dense1_b.size() != hidden ||
      dense2_w.size() != 2 * hidden || dense2_b.size() != 2) {
    throw std::invalid_argument("Cnn1D::load: inconsistent model file");
  }
  scaler_ = std::move(scaler);
  input_dim_ = input_dim;
  config_.filters = filters;
  config_.kernel = kernel;
  config_.hidden = hidden;
  conv_w_ = std::move(conv_w);
  conv_b_ = std::move(conv_b);
  dense1_w_ = std::move(dense1_w);
  dense1_b_ = std::move(dense1_b);
  dense2_w_ = std::move(dense2_w);
  dense2_b_ = std::move(dense2_b);
  trained_ = true;
  if (quantize_) build_quantized_tables();  // weights replaced under an active switch
}

std::size_t Cnn1D::parameter_count() const {
  return conv_w_.size() + conv_b_.size() + dense1_w_.size() + dense1_b_.size() +
         dense2_w_.size() + dense2_b_.size();
}

std::uint64_t Cnn1D::parameter_bytes() const { return parameter_count() * sizeof(double); }

std::uint64_t Cnn1D::inference_scratch_bytes() const {
  // All Activations buffers touched by one forward pass.
  const std::size_t d = input_dim_;
  const std::size_t doubles = d + 2 * config_.filters * d + 2 * config_.filters * pooled_length() +
                              2 * config_.hidden + 4;
  return doubles * sizeof(double) +
         config_.filters * pooled_length() * sizeof(std::size_t);
}

}  // namespace ddoshield::ml

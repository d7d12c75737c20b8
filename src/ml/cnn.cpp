#include "ml/cnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ddoshield::ml {

// Parameter layouts:
//   conv_w_[f * kernel + k]           — filter f, tap k (same padding)
//   dense1_w_[h * flat + i]           — hidden unit h, flattened input i
//   dense2_w_[c * hidden + h]         — class c, hidden unit h
// Flattened conv output index: f * pooled_length() + p.

namespace {

/// Adam state for one parameter tensor.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
  explicit AdamState(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
};

void adam_step(std::vector<double>& params, const std::vector<double>& grads, AdamState& state,
               const CnnConfig& cfg, double lr_t) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    state.m[i] = cfg.beta1 * state.m[i] + (1.0 - cfg.beta1) * grads[i];
    state.v[i] = cfg.beta2 * state.v[i] + (1.0 - cfg.beta2) * grads[i] * grads[i];
    params[i] -= lr_t * state.m[i] / (std::sqrt(state.v[i]) + 1e-8);
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
  const std::size_t p_len = pooled_length();
  const std::size_t d = input_dim_;
  const std::size_t half = k / 2;

  AdamState s_conv_w{conv_w_.size()}, s_conv_b{conv_b_.size()};
  AdamState s_d1_w{dense1_w_.size()}, s_d1_b{dense1_b_.size()};
  AdamState s_d2_w{dense2_w_.size()}, s_d2_b{dense2_b_.size()};

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  Activations act;
  std::vector<double> g_conv_w(conv_w_.size()), g_conv_b(conv_b_.size());
  std::vector<double> g_d1_w(dense1_w_.size()), g_d1_b(dense1_b_.size());
  std::vector<double> g_d2_w(dense2_w_.size()), g_d2_b(dense2_b_.size());
  std::vector<double> d_relu2(h_count), d_pooled(flat), d_relu1(f_count * d);

  std::uint64_t step = 0;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n);
      const double inv_batch = 1.0 / static_cast<double>(end - start);

      std::fill(g_conv_w.begin(), g_conv_w.end(), 0.0);
      std::fill(g_conv_b.begin(), g_conv_b.end(), 0.0);
      std::fill(g_d1_w.begin(), g_d1_w.end(), 0.0);
      std::fill(g_d1_b.begin(), g_d1_b.end(), 0.0);
      std::fill(g_d2_w.begin(), g_d2_w.end(), 0.0);
      std::fill(g_d2_b.begin(), g_d2_b.end(), 0.0);

      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = order[bi];
        forward(data.row(i), act);
        const int truth = sub_y[i] != 0 ? 1 : 0;

        // dL/dlogits for softmax + cross-entropy.
        double d_logits[2] = {act.probs[0], act.probs[1]};
        d_logits[truth] -= 1.0;

        // Dense2 gradients and back to relu2.
        std::fill(d_relu2.begin(), d_relu2.end(), 0.0);
        for (std::size_t c = 0; c < 2; ++c) {
          g_d2_b[c] += d_logits[c];
          double* gw = &g_d2_w[c * h_count];
          const double* w = &dense2_w_[c * h_count];
          for (std::size_t h = 0; h < h_count; ++h) {
            gw[h] += d_logits[c] * act.relu2[h];
            d_relu2[h] += d_logits[c] * w[h];
          }
        }

        // ReLU2 and Dense1; back to pooled.
        std::fill(d_pooled.begin(), d_pooled.end(), 0.0);
        for (std::size_t h = 0; h < h_count; ++h) {
          if (act.dense1[h] <= 0.0) continue;
          const double dh = d_relu2[h];
          g_d1_b[h] += dh;
          double* gw = &g_d1_w[h * flat];
          const double* w = &dense1_w_[h * flat];
          for (std::size_t p = 0; p < flat; ++p) {
            gw[p] += dh * act.pooled[p];
            d_pooled[p] += dh * w[p];
          }
        }

        // MaxPool backprop (route gradient to argmax), then ReLU1.
        std::fill(d_relu1.begin(), d_relu1.end(), 0.0);
        for (std::size_t p = 0; p < f_count * p_len; ++p) {
          d_relu1[act.pool_argmax[p]] += d_pooled[p];
        }

        // Conv backprop.
        for (std::size_t f = 0; f < f_count; ++f) {
          for (std::size_t i2 = 0; i2 < d; ++i2) {
            if (act.conv[f * d + i2] <= 0.0) continue;  // ReLU1 gate
            const double dc = d_relu1[f * d + i2];
            if (dc == 0.0) continue;
            g_conv_b[f] += dc;
            for (std::size_t t = 0; t < k; ++t) {
              const std::int64_t src =
                  static_cast<std::int64_t>(i2 + t) - static_cast<std::int64_t>(half);
              if (src >= 0 && src < static_cast<std::int64_t>(d)) {
                g_conv_w[f * k + t] += dc * act.input[static_cast<std::size_t>(src)];
              }
            }
          }
        }
      }

      // Average the batch gradients and take an Adam step.
      for (double& g : g_conv_w) g *= inv_batch;
      for (double& g : g_conv_b) g *= inv_batch;
      for (double& g : g_d1_w) g *= inv_batch;
      for (double& g : g_d1_b) g *= inv_batch;
      for (double& g : g_d2_w) g *= inv_batch;
      for (double& g : g_d2_b) g *= inv_batch;

      ++step;
      const double bias_correction =
          std::sqrt(1.0 - std::pow(config_.beta2, static_cast<double>(step))) /
          (1.0 - std::pow(config_.beta1, static_cast<double>(step)));
      const double lr_t = config_.learning_rate * bias_correction;

      adam_step(conv_w_, g_conv_w, s_conv_w, config_, lr_t);
      adam_step(conv_b_, g_conv_b, s_conv_b, config_, lr_t);
      adam_step(dense1_w_, g_d1_w, s_d1_w, config_, lr_t);
      adam_step(dense1_b_, g_d1_b, s_d1_b, config_, lr_t);
      adam_step(dense2_w_, g_d2_w, s_d2_w, config_, lr_t);
      adam_step(dense2_b_, g_d2_b, s_d2_b, config_, lr_t);
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
  const std::size_t f_count = config_.filters;
  const std::size_t k = config_.kernel;
  const std::size_t half = k / 2;
  const std::size_t p_len = pooled_length();
  const std::size_t flat = flat_size();
  const std::size_t h_count = config_.hidden;
  out.assign(n, 0);

  constexpr std::size_t kRowBlock = 32;
  constexpr std::size_t kTileRows = 16;  // GEMM micro-tile width (see below)
  std::vector<double> scaled(kRowBlock * d);
  std::vector<double> relu1(d);                 // one row's conv activations
  std::vector<double> pooled(kRowBlock * flat); // the im2col design matrix
  std::vector<double> pt(flat * kTileRows);     // one tile, transposed
  std::vector<double> hidden(kRowBlock * h_count);
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
      double* in = scaled.data() + r * d;
      scaler_.transform_into(x.row(base + r), {in, d});
      double* p_row = pooled.data() + r * flat;
      for (std::size_t f = 0; f < f_count; ++f) {
        for (std::size_t i = 0; i < d; ++i) {
          double sum = conv_b_[f];
          for (std::size_t t = 0; t < k; ++t) {
            const std::int64_t src =
                static_cast<std::int64_t>(i + t) - static_cast<std::int64_t>(half);
            if (src >= 0 && src < static_cast<std::int64_t>(d)) {
              sum += conv_w_[f * k + t] * in[static_cast<std::size_t>(src)];
            }
          }
          relu1[i] = sum > 0.0 ? sum : 0.0;
        }
        for (std::size_t p = 0; p < p_len; ++p) {
          const std::size_t i0 = 2 * p;
          const std::size_t i1 = std::min(i0 + 1, d - 1);
          const double v0 = relu1[i0];
          const double v1 = relu1[i1];
          p_row[f * p_len + p] = v0 >= v1 ? v0 : v1;  // scalar path's >= tie rule
        }
      }
    }

    // --- Dense(hidden) as a register-blocked GEMM ------------------------
    // Two structural moves over the scalar per-row GEMV, neither touching
    // any per-output reduction:
    //   * hidden unit outer, rows inner — the per-row order streams the
    //     whole dense1 weight matrix (H × flat doubles, far beyond L2)
    //     once per row and is memory-bound; this order loads each weight
    //     row once per tile and reuses it across every row in it;
    //   * a fixed-width transposed micro-tile — row j's pooled value for
    //     input i sits at pt[i * kTileRows + j], so the j-loop below is a
    //     contiguous fixed-trip-count lane loop the compiler can keep in
    //     vector registers. Each lane j is an independent accumulator
    //     chain that still sums i ascending from the bias — the scalar
    //     order — so every (row, h) output is bit-identical to forward();
    //     the lanes merely retire in parallel instead of serialising on
    //     the FP add latency like the scalar dot product does.
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
          const double v = b + w_scale * a_scales[r] * static_cast<double>(acc);
          hidden[r * h_count + h] = v > 0.0 ? v : 0.0;
        }
      }
      // --- Dense(2) + softmax + argmax (shared with the float path) ------
      for (std::size_t r = 0; r < bn; ++r) {
        const double* h_row = hidden.data() + r * h_count;
        const double* w0 = &dense2_w_[0];
        const double* w1 = &dense2_w_[h_count];
        double l0 = dense2_b_[0], l1 = dense2_b_[1];
        for (std::size_t h = 0; h < h_count; ++h) {
          l0 += w0[h] * h_row[h];
          l1 += w1[h] * h_row[h];
        }
        out[base + r] = l1 > l0 ? 1 : 0;  // softmax is monotone; argmax on logits
      }
      continue;
    }

    std::size_t r0 = 0;
    for (; r0 + kTileRows <= bn; r0 += kTileRows) {
      for (std::size_t j = 0; j < kTileRows; ++j) {
        const double* p_row = pooled.data() + (r0 + j) * flat;
        for (std::size_t i = 0; i < flat; ++i) pt[i * kTileRows + j] = p_row[i];
      }
      for (std::size_t h = 0; h < h_count; ++h) {
        const double* w = &dense1_w_[h * flat];
        const double b = dense1_b_[h];
        double acc[kTileRows];
#if defined(__SSE2__)
        // Hand-held two-lane form of the fallback loop below. GCC at -O2
        // vectorises that loop but leaves the accumulators in stack slots;
        // naming the 8 × 2-lane accumulators as __m128d values keeps the
        // whole tile in registers (measured ~2.3× over the fallback here).
        // Each lane is still an independent bias-first, i-ascending chain
        // of mul-then-add (no FMA contraction on packed intrinsics), so
        // outputs stay bit-identical to the scalar dot product.
        const __m128d bv = _mm_set1_pd(b);
        __m128d a0 = bv, a1 = bv, a2 = bv, a3 = bv, a4 = bv, a5 = bv, a6 = bv, a7 = bv;
        for (std::size_t i = 0; i < flat; ++i) {
          const __m128d wi = _mm_set1_pd(w[i]);
          const double* col = pt.data() + i * kTileRows;
          a0 = _mm_add_pd(a0, _mm_mul_pd(wi, _mm_loadu_pd(col + 0)));
          a1 = _mm_add_pd(a1, _mm_mul_pd(wi, _mm_loadu_pd(col + 2)));
          a2 = _mm_add_pd(a2, _mm_mul_pd(wi, _mm_loadu_pd(col + 4)));
          a3 = _mm_add_pd(a3, _mm_mul_pd(wi, _mm_loadu_pd(col + 6)));
          a4 = _mm_add_pd(a4, _mm_mul_pd(wi, _mm_loadu_pd(col + 8)));
          a5 = _mm_add_pd(a5, _mm_mul_pd(wi, _mm_loadu_pd(col + 10)));
          a6 = _mm_add_pd(a6, _mm_mul_pd(wi, _mm_loadu_pd(col + 12)));
          a7 = _mm_add_pd(a7, _mm_mul_pd(wi, _mm_loadu_pd(col + 14)));
        }
        _mm_storeu_pd(acc + 0, a0);
        _mm_storeu_pd(acc + 2, a1);
        _mm_storeu_pd(acc + 4, a2);
        _mm_storeu_pd(acc + 6, a3);
        _mm_storeu_pd(acc + 8, a4);
        _mm_storeu_pd(acc + 10, a5);
        _mm_storeu_pd(acc + 12, a6);
        _mm_storeu_pd(acc + 14, a7);
#else
        for (std::size_t j = 0; j < kTileRows; ++j) acc[j] = b;
        for (std::size_t i = 0; i < flat; ++i) {
          const double wi = w[i];
          const double* col = pt.data() + i * kTileRows;
          for (std::size_t j = 0; j < kTileRows; ++j) acc[j] += wi * col[j];
        }
#endif
        for (std::size_t j = 0; j < kTileRows; ++j) {
          hidden[(r0 + j) * h_count + h] = acc[j] > 0.0 ? acc[j] : 0.0;
        }
      }
    }
    // Remainder rows (final partial tile): plain per-row dot products.
    for (; r0 < bn; ++r0) {
      const double* p_row = pooled.data() + r0 * flat;
      for (std::size_t h = 0; h < h_count; ++h) {
        const double* w = &dense1_w_[h * flat];
        double sum = dense1_b_[h];
        for (std::size_t i = 0; i < flat; ++i) sum += w[i] * p_row[i];
        hidden[r0 * h_count + h] = sum > 0.0 ? sum : 0.0;
      }
    }

    // --- Dense(2) + softmax + argmax -------------------------------------
    for (std::size_t r = 0; r < bn; ++r) {
      const double* h_row = hidden.data() + r * h_count;
      const double* w0 = &dense2_w_[0];
      const double* w1 = &dense2_w_[h_count];
      double l0 = dense2_b_[0], l1 = dense2_b_[1];
      for (std::size_t h = 0; h < h_count; ++h) {
        l0 += w0[h] * h_row[h];
        l1 += w1[h] * h_row[h];
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
  scaler_.load(r);
  input_dim_ = r.get_u64();
  config_.filters = r.get_u64();
  config_.kernel = r.get_u64();
  config_.hidden = r.get_u64();
  conv_w_ = r.get_f64_vector();
  conv_b_ = r.get_f64_vector();
  dense1_w_ = r.get_f64_vector();
  dense1_b_ = r.get_f64_vector();
  dense2_w_ = r.get_f64_vector();
  dense2_b_ = r.get_f64_vector();
  if (conv_w_.size() != config_.filters * config_.kernel ||
      dense1_w_.size() != config_.hidden * flat_size() ||
      dense2_w_.size() != 2 * config_.hidden) {
    throw std::invalid_argument("Cnn1D::load: inconsistent model file");
  }
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

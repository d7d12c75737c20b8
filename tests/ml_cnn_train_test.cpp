// Blocked CNN training vs the one-sample-at-a-time oracle. Cnn1D trains a
// whole Adam mini-batch at a time through block kernels; ReferenceTrainer
// below is the per-sample forward/backward loop those kernels replaced.
// The kernels keep that loop's summation order for every gradient
// element, so after fit(), train_epochs() and incremental_update() the
// parameters must match it bit for bit — across partial batches, column
// counts that are not a multiple of the kernels' register blocks, odd
// hidden counts, the production shape, and with int8 serving switched on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ml/cnn.hpp"
#include "ml/design_matrix.hpp"
#include "ml/preprocess.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {
namespace {

using util::Rng;

/// Per-sample Adam training over a Cnn1D's flattened parameters
/// (parameters() layout): forward one row, back-propagate it into the
/// batch gradient sums, and take one Adam step per mini-batch.
class ReferenceTrainer {
 public:
  ReferenceTrainer(const CnnConfig& cfg, std::size_t input_dim, const StandardScaler& scaler,
                   const std::vector<double>& params)
      : cfg_{cfg}, d_{input_dim}, scaler_{scaler} {
    const std::pair<std::vector<double>*, std::size_t> blocks[] = {
        {&conv_w_, cfg.filters * cfg.kernel}, {&conv_b_, cfg.filters},
        {&dense1_w_, cfg.hidden * flat()},    {&dense1_b_, cfg.hidden},
        {&dense2_w_, 2 * cfg.hidden},         {&dense2_b_, 2}};
    std::size_t pos = 0;
    for (const auto& [block, size] : blocks) {
      block->assign(params.begin() + static_cast<std::ptrdiff_t>(pos),
                    params.begin() + static_cast<std::ptrdiff_t>(pos + size));
      pos += size;
    }
    EXPECT_EQ(pos, params.size());
  }

  std::vector<double> parameters() const {
    std::vector<double> out;
    for (const auto* block : {&conv_w_, &conv_b_, &dense1_w_, &dense1_b_, &dense2_w_, &dense2_b_}) {
      out.insert(out.end(), block->begin(), block->end());
    }
    return out;
  }

  void train(const DesignMatrix& x, const std::vector<int>& y, std::size_t epochs, Rng rng) {
    DesignMatrix sub_raw;
    std::vector<int> sub_y;
    subsample(x, y, cfg_.max_training_rows, rng, sub_raw, sub_y);
    const DesignMatrix data = scaler_.transform(sub_raw);
    const std::size_t n = data.rows();
    const std::size_t f_count = cfg_.filters, k = cfg_.kernel, half = k / 2;
    const std::size_t h_count = cfg_.hidden, flat_n = flat(), p_len = pooled_length();

    Adam s_conv_w{conv_w_.size()}, s_conv_b{conv_b_.size()};
    Adam s_d1_w{dense1_w_.size()}, s_d1_b{dense1_b_.size()};
    Adam s_d2_w{dense2_w_.size()}, s_d2_b{dense2_b_.size()};
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;

    Activations act;
    std::vector<double> g_conv_w(conv_w_.size()), g_conv_b(conv_b_.size());
    std::vector<double> g_d1_w(dense1_w_.size()), g_d1_b(dense1_b_.size());
    std::vector<double> g_d2_w(dense2_w_.size()), g_d2_b(dense2_b_.size());
    std::vector<double> d_relu2(h_count), d_pooled(flat_n), d_relu1(f_count * d_);

    std::uint64_t step = 0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      rng.shuffle(order);
      for (std::size_t start = 0; start < n; start += cfg_.batch_size) {
        const std::size_t end = std::min(start + cfg_.batch_size, n);
        const double inv_batch = 1.0 / static_cast<double>(end - start);
        for (auto* g : {&g_conv_w, &g_conv_b, &g_d1_w, &g_d1_b, &g_d2_w, &g_d2_b}) {
          std::fill(g->begin(), g->end(), 0.0);
        }

        for (std::size_t bi = start; bi < end; ++bi) {
          const std::size_t i = order[bi];
          forward(data.row(i), act);
          const int truth = sub_y[i] != 0 ? 1 : 0;
          double d_logits[2] = {act.probs[0], act.probs[1]};
          d_logits[truth] -= 1.0;

          std::fill(d_relu2.begin(), d_relu2.end(), 0.0);
          for (std::size_t c = 0; c < 2; ++c) {
            g_d2_b[c] += d_logits[c];
            for (std::size_t h = 0; h < h_count; ++h) {
              g_d2_w[c * h_count + h] += d_logits[c] * act.relu2[h];
              d_relu2[h] += d_logits[c] * dense2_w_[c * h_count + h];
            }
          }

          std::fill(d_pooled.begin(), d_pooled.end(), 0.0);
          for (std::size_t h = 0; h < h_count; ++h) {
            if (act.dense1[h] <= 0.0) continue;
            const double dh = d_relu2[h];
            g_d1_b[h] += dh;
            for (std::size_t p = 0; p < flat_n; ++p) {
              g_d1_w[h * flat_n + p] += dh * act.pooled[p];
              d_pooled[p] += dh * dense1_w_[h * flat_n + p];
            }
          }

          std::fill(d_relu1.begin(), d_relu1.end(), 0.0);
          for (std::size_t p = 0; p < f_count * p_len; ++p) {
            d_relu1[act.pool_argmax[p]] += d_pooled[p];
          }
          for (std::size_t f = 0; f < f_count; ++f) {
            for (std::size_t i2 = 0; i2 < d_; ++i2) {
              if (act.conv[f * d_ + i2] <= 0.0) continue;
              const double dc = d_relu1[f * d_ + i2];
              if (dc == 0.0) continue;
              g_conv_b[f] += dc;
              for (std::size_t t = 0; t < k; ++t) {
                const std::int64_t src =
                    static_cast<std::int64_t>(i2 + t) - static_cast<std::int64_t>(half);
                if (src >= 0 && src < static_cast<std::int64_t>(d_)) {
                  g_conv_w[f * k + t] += dc * act.input[static_cast<std::size_t>(src)];
                }
              }
            }
          }
        }

        for (auto* g : {&g_conv_w, &g_conv_b, &g_d1_w, &g_d1_b, &g_d2_w, &g_d2_b}) {
          for (double& v : *g) v *= inv_batch;
        }
        ++step;
        const double lr_t = cfg_.learning_rate *
                            (std::sqrt(1.0 - std::pow(cfg_.beta2, static_cast<double>(step))) /
                             (1.0 - std::pow(cfg_.beta1, static_cast<double>(step))));
        adam(conv_w_, g_conv_w, s_conv_w, lr_t);
        adam(conv_b_, g_conv_b, s_conv_b, lr_t);
        adam(dense1_w_, g_d1_w, s_d1_w, lr_t);
        adam(dense1_b_, g_d1_b, s_d1_b, lr_t);
        adam(dense2_w_, g_d2_w, s_d2_w, lr_t);
        adam(dense2_b_, g_d2_b, s_d2_b, lr_t);
      }
    }
  }

 private:
  struct Adam {
    std::vector<double> m, v;
    explicit Adam(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
  };
  struct Activations {
    std::vector<double> input, conv, relu1, pooled, dense1, relu2, probs;
    std::vector<std::size_t> pool_argmax;
  };

  std::size_t pooled_length() const { return (d_ + 1) / 2; }
  std::size_t flat() const { return cfg_.filters * pooled_length(); }

  void adam(std::vector<double>& params, const std::vector<double>& grads, Adam& s,
            double lr_t) const {
    for (std::size_t i = 0; i < params.size(); ++i) {
      s.m[i] = cfg_.beta1 * s.m[i] + (1.0 - cfg_.beta1) * grads[i];
      s.v[i] = cfg_.beta2 * s.v[i] + (1.0 - cfg_.beta2) * grads[i] * grads[i];
      params[i] -= lr_t * s.m[i] / (std::sqrt(s.v[i]) + 1e-8);
    }
  }

  void forward(std::span<const double> scaled, Activations& act) const {
    const std::size_t f_count = cfg_.filters, k = cfg_.kernel, half = k / 2;
    const std::size_t p_len = pooled_length(), flat_n = flat(), h_count = cfg_.hidden;
    act.input.assign(scaled.begin(), scaled.end());
    act.conv.assign(f_count * d_, 0.0);
    act.relu1.assign(f_count * d_, 0.0);
    act.pooled.assign(flat_n, 0.0);
    act.pool_argmax.assign(flat_n, 0);
    act.dense1.assign(h_count, 0.0);
    act.relu2.assign(h_count, 0.0);
    act.probs.assign(2, 0.0);
    for (std::size_t f = 0; f < f_count; ++f) {
      for (std::size_t i = 0; i < d_; ++i) {
        double sum = conv_b_[f];
        for (std::size_t t = 0; t < k; ++t) {
          const std::int64_t src =
              static_cast<std::int64_t>(i + t) - static_cast<std::int64_t>(half);
          if (src >= 0 && src < static_cast<std::int64_t>(d_)) {
            sum += conv_w_[f * k + t] * scaled[static_cast<std::size_t>(src)];
          }
        }
        act.conv[f * d_ + i] = sum;
        act.relu1[f * d_ + i] = sum > 0.0 ? sum : 0.0;
      }
    }
    for (std::size_t f = 0; f < f_count; ++f) {
      for (std::size_t p = 0; p < p_len; ++p) {
        const std::size_t i0 = 2 * p, i1 = std::min(i0 + 1, d_ - 1);
        const double v0 = act.relu1[f * d_ + i0], v1 = act.relu1[f * d_ + i1];
        act.pooled[f * p_len + p] = v0 >= v1 ? v0 : v1;
        act.pool_argmax[f * p_len + p] = f * d_ + (v0 >= v1 ? i0 : i1);
      }
    }
    for (std::size_t h = 0; h < h_count; ++h) {
      double sum = dense1_b_[h];
      for (std::size_t i = 0; i < flat_n; ++i) sum += dense1_w_[h * flat_n + i] * act.pooled[i];
      act.dense1[h] = sum;
      act.relu2[h] = sum > 0.0 ? sum : 0.0;
    }
    double logits[2];
    for (std::size_t c = 0; c < 2; ++c) {
      double sum = dense2_b_[c];
      for (std::size_t h = 0; h < h_count; ++h) sum += dense2_w_[c * h_count + h] * act.relu2[h];
      logits[c] = sum;
    }
    const double mx = std::max(logits[0], logits[1]);
    const double e0 = std::exp(logits[0] - mx);
    const double e1 = std::exp(logits[1] - mx);
    act.probs[0] = e0 / (e0 + e1);
    act.probs[1] = e1 / (e0 + e1);
  }

  CnnConfig cfg_;
  std::size_t d_;
  StandardScaler scaler_;
  std::vector<double> conv_w_, conv_b_, dense1_w_, dense1_b_, dense2_w_, dense2_b_;
};

/// Two overlapping Gaussian classes, so the ReLU gates open and close
/// unevenly and the gradients stay informative.
void make_data(std::size_t n, std::size_t width, std::uint64_t seed, DesignMatrix& x,
               std::vector<int>& y) {
  Rng rng{seed};
  x = DesignMatrix{width};
  y.clear();
  std::vector<double> row(width);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.uniform_u64(2));
    for (std::size_t d = 0; d < width; ++d) {
      row[d] = rng.normal(cls == 1 ? 0.8 + 0.1 * static_cast<double>(d) : 0.0, 1.0);
    }
    x.add_row(row);
    y.push_back(cls);
  }
}

void expect_bit_equal(const std::vector<double>& got, const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << ": parameter " << i << " is " << got[i] << ", oracle " << want[i];
  }
}

/// The seed train_epochs() uses on its `call`-th invocation.
Rng train_rng(const CnnConfig& cfg, std::uint64_t call) {
  return Rng{cfg.seed ^ (0x9E3779B97F4A7C15ULL + call)};
}

/// fit(), then a train_epochs() call on fresh rows, then an
/// incremental_update(), each checked against the oracle continuing from
/// the same parameters.
void expect_training_matches_oracle(const CnnConfig& cfg, std::size_t width, std::size_t rows,
                                    bool quantized) {
  const std::string tag = "width " + std::to_string(width) + ", batch " +
                          std::to_string(cfg.batch_size) + ", hidden " +
                          std::to_string(cfg.hidden) + (quantized ? ", int8" : "");
  DesignMatrix x;
  std::vector<int> y;
  make_data(rows, width, 11 + cfg.batch_size, x, y);

  Cnn1D model{cfg};
  model.set_quantized_inference(quantized);
  model.fit(x, y);

  StandardScaler scaler;
  scaler.fit(x);
  Cnn1D initial{cfg};
  initial.initialize(width, scaler);
  ReferenceTrainer oracle{cfg, width, scaler, initial.parameters()};
  oracle.train(x, y, cfg.epochs, train_rng(cfg, 1));
  expect_bit_equal(model.parameters(), oracle.parameters(), tag + ", fit");

  DesignMatrix x2;
  std::vector<int> y2;
  make_data(rows / 2 + 3, width, 97 + cfg.batch_size, x2, y2);
  model.train_epochs(x2, y2, 2);
  oracle.train(x2, y2, 2, train_rng(cfg, 2));
  expect_bit_equal(model.parameters(), oracle.parameters(), tag + ", train_epochs");

  Rng update_rng{5150};
  const Rng fine_tune_rng = update_rng.fork("cnn-fine-tune");
  ASSERT_TRUE(model.incremental_update(x2, y2, update_rng));
  oracle.train(x2, y2, cfg.fine_tune_epochs, fine_tune_rng);
  expect_bit_equal(model.parameters(), oracle.parameters(), tag + ", incremental_update");

  // The served model still agrees with itself row for row.
  Verdicts batched;
  model.score_batch(x, batched);
  if (!quantized) {
    for (std::size_t i = 0; i < x.rows(); ++i) ASSERT_EQ(batched[i], model.predict(x.row(i)));
  }
}

TEST(CnnTrainingOracleTest, BatchSizesWithPartialLastBatches) {
  // Width 5 with 3 filters gives 9 flattened inputs, less than one
  // 12-column block, so the gradient kernel runs only its scalar columns;
  // the odd batch sizes run the row-pair kernels' scalar tails, with an
  // odd number (7) of hidden units. 203 rows leave a partial last batch at
  // every size but 1; 17 straddles the 16-row Dense(hidden) tile.
  for (const std::size_t batch : {1u, 15u, 16u, 17u, 64u}) {
    CnnConfig cfg{.filters = 3, .kernel = 3, .hidden = 7, .epochs = 2, .batch_size = batch};
    expect_training_matches_oracle(cfg, 5, 203, false);
  }
}

TEST(CnnTrainingOracleTest, WiderKernelAndSubsampledRows) {
  // A 5-tap kernel over an even width (flat 20: one 12-column block and
  // 8 scalar columns), and a row bound that makes training subsample
  // before it shuffles.
  CnnConfig cfg{.filters = 5, .kernel = 5, .hidden = 33, .epochs = 3, .batch_size = 24,
                .max_training_rows = 150};
  expect_training_matches_oracle(cfg, 8, 211, false);
}

TEST(CnnTrainingOracleTest, ProductionShape) {
  // 17 features, 8 filters, 1250 hidden units: 72 flattened inputs, six
  // full 12-column blocks; 300 rows leave a 44-row last batch.
  CnnConfig cfg{.epochs = 1};
  expect_training_matches_oracle(cfg, 17, 300, false);
}

TEST(CnnTrainingOracleTest, ExactZeroPreActivationsKeepTheGateClosed) {
  // Rows equal to the scaler's mean scale to exact zeros. Freshly
  // initialized biases are zero, so in the first batches those rows put
  // exactly 0 into every conv and Dense(hidden) pre-activation: the
  // gates must stay closed there (the oracle skips z <= 0).
  CnnConfig cfg{.filters = 4, .hidden = 24, .epochs = 1, .batch_size = 16};
  DesignMatrix x;
  std::vector<int> y;
  make_data(120, 9, 31, x, y);
  StandardScaler scaler;
  scaler.fit(x);
  for (std::size_t i = 0; i < 40; ++i) {
    x.add_row(scaler.mean());
    y.push_back(static_cast<int>(i % 2));
  }

  Cnn1D model{cfg};
  model.initialize(9, scaler);
  ReferenceTrainer oracle{cfg, 9, scaler, model.parameters()};
  model.train_epochs(x, y, cfg.epochs);
  oracle.train(x, y, cfg.epochs, train_rng(cfg, 1));
  expect_bit_equal(model.parameters(), oracle.parameters(), "rows at the mean");
}

TEST(CnnTrainingOracleTest, QuantizedInferenceDoesNotChangeTraining) {
  CnnConfig cfg{.filters = 4, .hidden = 40, .epochs = 2, .batch_size = 32};
  expect_training_matches_oracle(cfg, 17, 150, true);
}

}  // namespace
}  // namespace ddoshield::ml

// 1-D convolutional neural network (§III-B, the paper's TensorFlow model).
//
// Architecture over the feature vector treated as a length-D sequence:
//   Conv1D(filters, kernel=3, same padding) → ReLU → MaxPool(2)
//   → Flatten → Dense(hidden) → ReLU → Dense(2) → Softmax
// trained with Adam on cross-entropy in mini-batches. Written from
// scratch: forward, backward, and the optimiser live here; no external ML
// dependency.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/preprocess.hpp"
#include "util/rng.hpp"

namespace ddoshield::ml {

struct CnnConfig {
  std::size_t filters = 8;
  std::size_t kernel = 3;
  std::size_t hidden = 1250;
  std::size_t epochs = 4;
  std::size_t batch_size = 64;
  double learning_rate = 1e-3;
  /// Adam moment decay rates.
  double beta1 = 0.9;
  double beta2 = 0.999;
  /// Training subsample bound.
  std::size_t max_training_rows = 30000;
  /// Adam epochs per incremental_update() (lifecycle fine-tune).
  std::size_t fine_tune_epochs = 2;
  std::uint64_t seed = 777;
};

class Cnn1D : public Classifier {
 public:
  explicit Cnn1D(CnnConfig config = {});

  std::string name() const override { return "cnn"; }
  void fit(const DesignMatrix& x, const std::vector<int>& y) override;
  int predict(std::span<const double> row) const override;
  /// Batched kernel: scales and convolves a block of rows into an
  /// im2col-style (rows × flat) pooled matrix, then runs Dense(hidden) and
  /// Dense(2) through the block kernels training shares
  /// (cnn_kernel::kernels(): AVX2 where the CPU has it, else SSE2). The
  /// Dense(hidden) kernel takes one hidden unit at a time over a
  /// transposed row tile (32 rows in eight 4-lane accumulators under
  /// AVX2, 16 rows in eight 2-lane ones under SSE2), every lane summing
  /// the flat dimension from the bias in the scalar path's ascending
  /// order. The result is bit-identical to predict(), while the
  /// independent chains hide the FP add latency that serialises a single
  /// dot product. No per-row allocation.
  void score_batch(const DesignMatrix& x, Verdicts& out) const override;
  /// Lifecycle retrain: fine_tune_epochs extra Adam epochs from the
  /// current parameters on the replay batch (frozen scaler). The shuffle
  /// stream comes from the caller's rng fork — not the internal
  /// train_calls_ counter — so a retrain on a deserialized clone is a
  /// pure function of (parameters, x, y, rng). Refreshes the int8 tables
  /// when quantized inference is enabled.
  bool incremental_update(const DesignMatrix& x, const std::vector<int>& y,
                          util::Rng& rng) override;
  /// Copies the training hyperparameters (fine-tune epochs, Adam betas,
  /// batch size, ...) and the int8 switch from another Cnn1D —
  /// serialization carries only the architecture and weights, so a
  /// deserialized clone resets those knobs to defaults. Architecture
  /// fields are left alone: they must keep matching the loaded weights.
  void adopt_deployment(const Classifier& reference) override;
  bool trained() const override { return trained_; }

  // --- int8 quantized deployment point (lifecycle PR, DESIGN.md §14) -------
  /// Switches score_batch() to the dynamically-quantized dense1 kernel:
  /// per-hidden-unit symmetric int8 weights, per-row int8 activations,
  /// int32 accumulation. Roughly 8× smaller dense1 working set and
  /// integer arithmetic on the dominant GEMM; verdicts are NOT
  /// bit-identical to predict() (quantization error), so benches gate it
  /// with an accuracy-parity golden instead of the equality gate.
  /// Not thread-safe: configure before sharing the model across threads.
  void set_quantized_inference(bool enabled);
  bool quantized_inference() const { return quantize_; }
  /// Resident bytes of the quantized dense1 tables (reporting).
  std::uint64_t quantized_parameter_bytes() const;

  /// Class probabilities (softmax output) for one raw row.
  std::vector<double> predict_proba(std::span<const double> row) const;

  // --- federated-learning support (FedAvg over parameter vectors) ----------
  /// Prepares an untrained network: fixes the input width and the shared
  /// scaler, He-initialises the weights. After this the model is servable
  /// (trained() == true) and train_epochs() refines it in place.
  void initialize(std::size_t input_dim, const StandardScaler& scaler);
  /// Additional Adam epochs from the *current* parameters (no re-init).
  void train_epochs(const DesignMatrix& x, const std::vector<int>& y, std::size_t epochs);
  /// Flattened copy of all trainable parameters, layout-stable.
  std::vector<double> parameters() const;
  /// Replaces all parameters; the length must match parameters().size().
  void set_parameters(std::span<const double> flat);

  void save(util::ByteWriter& w) const override;
  void load(util::ByteReader& r) override;

  std::uint64_t parameter_bytes() const override;
  std::uint64_t inference_scratch_bytes() const override;

  std::size_t parameter_count() const;
  const StandardScaler* serving_scaler() const override {
    return scaler_.fitted() ? &scaler_ : nullptr;
  }

 private:
  struct Activations {
    std::vector<double> input;    // D
    std::vector<double> conv;     // F * D (pre-activation)
    std::vector<double> relu1;    // F * D
    std::vector<double> pooled;   // F * P
    std::vector<std::size_t> pool_argmax;
    std::vector<double> dense1;   // H (pre-activation)
    std::vector<double> relu2;    // H
    std::vector<double> logits;   // 2
    std::vector<double> probs;    // 2
  };

  /// One row through the whole network, scalar: predict()'s path and the
  /// per-row oracle the batched kernels are tested against.
  void forward(std::span<const double> scaled, Activations& act) const;

  /// Conv1D pre-activations (F × D), ReLU + MaxPool(2) output (flat) and
  /// each pooled value's argmax into the conv block, for one scaled row:
  /// the front end score_batch() and training share.
  void conv_pool_row(const double* in, double* conv, double* pooled, std::size_t* argmax) const;

  /// Adam over mini-batches, one batch at a time through the block
  /// kernels of cnn_kernel.hpp: conv_pool_row and the Dense forward
  /// kernels score_batch() runs, then backward through Dense(2) and the
  /// ReLU gate with compare masks, Dense(hidden)'s weight and input
  /// gradients one unit at a time over the rows whose gate is open
  /// (24-column register blocks under AVX2, 12-column under SSE2), and
  /// Conv1D per row. Every gradient element keeps
  /// the summation order of a one-sample-at-a-time loop (batch rows
  /// ascending; input gradients over hidden units ascending) and the
  /// kernels never fuse a multiply into an add, so the trained weights
  /// are bit-identical to that loop's — model files, accuracies and
  /// every downstream digest do not depend on the kernel.
  void train_epochs_with(const DesignMatrix& x, const std::vector<int>& y, std::size_t epochs,
                         util::Rng rng);
  /// (Re)builds the int8 dense1 tables from the current float weights.
  void build_quantized_tables();
  std::size_t pooled_length() const { return (input_dim_ + 1) / 2; }
  std::size_t flat_size() const { return config_.filters * pooled_length(); }

  CnnConfig config_;
  StandardScaler scaler_;
  std::size_t input_dim_ = 0;
  bool trained_ = false;
  std::uint64_t train_calls_ = 0;  // varies shuffles across train_epochs calls

  // Parameters, flat layouts documented in cnn.cpp.
  std::vector<double> conv_w_;    // F * kernel
  std::vector<double> conv_b_;    // F
  std::vector<double> dense1_w_;  // H * flat
  std::vector<double> dense1_b_;  // H
  std::vector<double> dense2_w_;  // 2 * H
  std::vector<double> dense2_b_;  // 2

  // int8 deployment tables (not serialized; rebuilt on demand).
  bool quantize_ = false;
  std::vector<std::int8_t> q_dense1_w_;  // H * flat, symmetric per-unit scale
  std::vector<double> q_dense1_scale_;   // H: w ≈ q * scale
};

}  // namespace ddoshield::ml

// A single LSTM layer with fused gate weights and exact BPTT gradients.
//
// Implements the cell of Fig. 4 in the paper:
//   i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)
//   f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)
//   o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)
//   g_t = tanh  (W_g x_t + U_g h_{t-1} + b_g)
//   C_t = f_t ⊙ C_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ tanh(C_t)
//
// The four gate weight blocks are fused into single (4H x I) / (4H x H)
// matrices in [i, f, g, o] order so the per-timestep work is two GEMMs.
// Forward caches everything needed for an exact backward pass (verified
// against finite differences in tests/nn_gradcheck_test.cpp).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/packed_weights.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

class LstmLayer {
 public:
  /// `activation` selects the function used for the candidate gate g_t and
  /// the cell output (the two tanh positions of the classic cell); kTanh is
  /// the paper's configuration.
  LstmLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
            Activation activation = Activation::kTanh);

  [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_size_; }

  /// Forward over a full sequence. `inputs[t]` is a (B x input_size) matrix;
  /// returns h_t for every t as (B x hidden_size) matrices. State starts at 0
  /// (stateless between batches, as in the paper's fixed-window formulation).
  [[nodiscard]] std::vector<tensor::Matrix> forward(const std::vector<tensor::Matrix>& inputs);

  /// Backward through time. `dh_out[t]` is dL/dh_t flowing from the layer
  /// above (zero matrices where a timestep output is unused). Accumulates
  /// weight gradients internally and returns dL/dx_t for each timestep.
  [[nodiscard]] std::vector<tensor::Matrix> backward(const std::vector<tensor::Matrix>& dh_out);

  void zero_grad() noexcept;

  /// Flat views over parameters and their gradients (W, U, b concatenated),
  /// consumed by the optimizer. Handing out writable views marks the packed
  /// panels stale until the next pack().
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<const double>> parameters() const;
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Rebuild the transposed and int8 panels step_fused reads from the
  /// current weights. Required after any weight change made through
  /// parameters(); LstmNetwork calls it on construction and load_weights().
  void pack();

  /// Fused single-sample inference step (DESIGN.md §12): advances the
  /// recurrent state one timestep — all four gate GEMVs and biases in one
  /// pass over the packed transposed weights, with no Matrix temporaries,
  /// then the vectorised gate kernels of nn/gate_math.hpp over each
  /// contiguous gate block and over the new cell state. Those kernels stand
  /// in for libm's exp/tanh within verify::kActivationUlpBound, so the step
  /// is not bit-identical to forward(). `x` has input_size elements; `h`
  /// and `c` hold the hidden/cell state (hidden_size each) and are updated
  /// in place; `scratch` must hold >= 5*hidden_size elements (4H gates + H
  /// for the activated cell state). T=double computes on the exact weights;
  /// T=float on the int8 row-quantized weights (LD_QUANT).
  /// Reads only the packed panels, so any number of threads may step one
  /// layer at once, each with its own state and scratch. Throws
  /// std::logic_error if the panels are stale (see pack()).
  template <typename T>
  void step_fused(const T* x, T* h, T* c, T* scratch) const;

 private:
  std::size_t input_size_, hidden_size_;
  Activation activation_ = Activation::kTanh;
  tensor::Matrix w_;          // (4H x I) input weights
  tensor::Matrix u_;          // (4H x H) recurrent weights
  std::vector<double> b_;     // (4H) bias, forget block initialized to 1
  tensor::Matrix dw_, du_;
  std::vector<double> db_;

  // Forward caches (per sequence).
  std::vector<tensor::Matrix> cache_x_;      // inputs
  std::vector<tensor::Matrix> cache_gates_;  // post-activation gates (B x 4H)
  std::vector<tensor::Matrix> cache_c_;      // cell states
  std::vector<tensor::Matrix> cache_h_;      // hidden states
  std::size_t cached_batch_ = 0;
  std::size_t cached_steps_ = 0;

  PackedPanels packed_;  // step_fused weights (see nn/packed_weights.hpp)
};

}  // namespace ld::nn

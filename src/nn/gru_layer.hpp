// GRU layer (Cho et al., 2014) — the most common LSTM variant in the cloud
// workload-prediction literature the paper surveys. Same fused-gate design
// and exact-BPTT contract as LstmLayer:
//   z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)        (update gate)
//   r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)        (reset gate)
//   g_t = act(W_g x_t + U_g (r_t ⊙ h_{t-1}) + b_g)    (candidate)
//   h_t = (1 - z_t) ⊙ h_{t-1} + z_t ⊙ g_t
// Fused blocks in [z, r, g] order.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/packed_weights.hpp"
#include "tensor/matrix.hpp"

namespace ld::nn {

class GruLayer {
 public:
  GruLayer(std::size_t input_size, std::size_t hidden_size, Rng& rng,
           Activation activation = Activation::kTanh);

  [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
  [[nodiscard]] std::size_t hidden_size() const noexcept { return hidden_size_; }

  [[nodiscard]] std::vector<tensor::Matrix> forward(const std::vector<tensor::Matrix>& inputs);
  [[nodiscard]] std::vector<tensor::Matrix> backward(const std::vector<tensor::Matrix>& dh_out);

  void zero_grad() noexcept;
  /// Same contract as LstmLayer: writable views mark the packed panels stale.
  [[nodiscard]] std::vector<std::span<double>> parameters();
  [[nodiscard]] std::vector<std::span<const double>> parameters() const;
  [[nodiscard]] std::vector<std::span<double>> gradients();
  [[nodiscard]] std::size_t parameter_count() const noexcept;

  /// Rebuild the fused-step panels from the current weights (see
  /// LstmLayer::pack).
  void pack();

  /// Fused single-sample inference step — same contract as
  /// LstmLayer::step_fused, including the vectorised gate kernels, thread
  /// safety and the stale-panel check. GRU has no cell state, so `c` is
  /// ignored (kept for a uniform call shape); `scratch` must hold
  /// >= 4*hidden_size elements (3H gate pre-activations + H for r ⊙ h).
  template <typename T>
  void step_fused(const T* x, T* h, T* c, T* scratch) const;

 private:
  std::size_t input_size_, hidden_size_;
  Activation activation_;
  tensor::Matrix w_;       // (3H x I)
  tensor::Matrix u_;       // (3H x H); the g-block row multiplies (r ⊙ h)
  std::vector<double> b_;  // (3H)
  tensor::Matrix dw_, du_;
  std::vector<double> db_;

  // Caches.
  std::vector<tensor::Matrix> cache_x_;
  std::vector<tensor::Matrix> cache_gates_;  // post-activation [z, r, g]
  std::vector<tensor::Matrix> cache_rh_;     // r ⊙ h_{t-1}
  std::vector<tensor::Matrix> cache_h_;
  std::size_t cached_batch_ = 0;
  std::size_t cached_steps_ = 0;

  PackedPanels packed_;  // step_fused weights (see nn/packed_weights.hpp)
};

}  // namespace ld::nn

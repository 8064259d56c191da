// Selectable activations for the LSTM candidate gate / cell output —
// the paper's Section V notes that "activation functions other than tanh may
// be used" and that such choices can be folded into the same
// auto-optimization process. kTanh reproduces the classic cell exactly.
#pragma once

#include <cmath>
#include <string>

namespace ld::nn {

enum class Activation { kTanh, kSigmoid, kSoftsign };

[[nodiscard]] inline double activate(Activation activation, double x) noexcept {
  switch (activation) {
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kSoftsign: return x / (1.0 + std::abs(x));
  }
  return x;
}

/// Derivative expressed in terms of the *activated* value y = f(x), which is
/// what the LSTM caches (avoids storing pre-activations).
[[nodiscard]] inline double activate_grad_from_output(Activation activation,
                                                      double y) noexcept {
  switch (activation) {
    case Activation::kTanh: return 1.0 - y * y;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kSoftsign: {
      // y = x/(1+|x|)  =>  f'(x) = (1-|y|)^2.
      const double a = 1.0 - std::abs(y);
      return a * a;
    }
  }
  return 1.0;
}

[[nodiscard]] std::string activation_name(Activation activation);
[[nodiscard]] Activation activation_from_name(const std::string& name);

}  // namespace ld::nn

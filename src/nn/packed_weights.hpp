// Weight packing for the fused single-timestep inference step
// (DESIGN.md §12). The recurrent layers store gate weights row-major as
// (G*H x In); the fused step walks them input-major, so both cell layers
// pack transposed (In x G*H) panels — one contiguous row per input element,
// turning every gate GEMV into an axpy over a contiguous row.
//
// The quantized variant first snaps each *gate row* (length In) to int8 with
// its own scale s_j = max_i |w(j,i)| / 127, then materializes the dequantized
// values q*s_j in float, transposed the same way. Dequantization is exact
// (both q and s_j are representable), so the float panel carries exactly the
// 255-level row-quantized weights — the accuracy guardrail in verify_test
// measures true int8 quantization error, not an artifact of the layout.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "tensor/matrix.hpp"

namespace ld::nn {

/// out[i * rows + j] = w(j, i) — transposed, input-major.
inline void pack_transposed(const tensor::Matrix& w, std::vector<double>& out) {
  const std::size_t rows = w.rows(), cols = w.cols();
  out.resize(rows * cols);
  for (std::size_t j = 0; j < rows; ++j)
    for (std::size_t i = 0; i < cols; ++i) out[i * rows + j] = w(j, i);
}

/// Per-row int8 quantization, dequantized into the same transposed layout:
/// out[i * rows + j] = round(w(j,i) / s_j) * s_j with s_j = max_i|w(j,i)|/127.
inline void quantize_rows_transposed(const tensor::Matrix& w, std::vector<float>& out) {
  const std::size_t rows = w.rows(), cols = w.cols();
  out.resize(rows * cols);
  for (std::size_t j = 0; j < rows; ++j) {
    double maxabs = 0.0;
    for (std::size_t i = 0; i < cols; ++i) maxabs = std::max(maxabs, std::abs(w(j, i)));
    const double scale = maxabs > 0.0 ? maxabs / 127.0 : 1.0;
    for (std::size_t i = 0; i < cols; ++i) {
      const auto q = static_cast<std::int32_t>(std::nearbyint(w(j, i) / scale));
      out[i * rows + j] = static_cast<float>(static_cast<double>(q) * scale);
    }
  }
}

/// One recurrent layer's fused-step panels in both precisions: built by the
/// layer's pack() from its input weights W, recurrent weights U and bias b,
/// read-only afterwards. `current` is cleared whenever the layer hands out
/// writable parameter views, so a stale panel is refused, never used.
struct PackedPanels {
  std::vector<double> wt, ut, b;    // transposed W and U, bias (fp64)
  std::vector<float> wtq, utq, bq;  // int8 row-quantized, dequantized; float bias
  bool current = false;

  void build(const tensor::Matrix& w, const tensor::Matrix& u, const std::vector<double>& bias) {
    pack_transposed(w, wt);
    pack_transposed(u, ut);
    b = bias;
    quantize_rows_transposed(w, wtq);
    quantize_rows_transposed(u, utq);
    bq.assign(bias.begin(), bias.end());
    current = true;
  }

  /// The T = double panels compute on the exact weights, T = float on the
  /// int8 row-quantized ones (LD_QUANT).
  template <typename T>
  [[nodiscard]] const T* input() const noexcept {
    if constexpr (std::is_same_v<T, float>) return wtq.data();
    else return wt.data();
  }
  template <typename T>
  [[nodiscard]] const T* recurrent() const noexcept {
    if constexpr (std::is_same_v<T, float>) return utq.data();
    else return ut.data();
  }
  template <typename T>
  [[nodiscard]] const T* bias() const noexcept {
    if constexpr (std::is_same_v<T, float>) return bq.data();
    else return b.data();
  }
};

}  // namespace ld::nn

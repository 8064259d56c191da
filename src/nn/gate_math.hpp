// Vectorisable gate activations for the fused inference step (DESIGN.md §12).
//
// LstmLayer/GruLayer::step_fused apply these to each cell's contiguous gate
// block after the GEMV. Every function is one plain loop with no libm call
// and no per-element branch, so the Release flags vectorise it without
// intrinsics or tier dispatch, and a vector lane computes exactly what the
// scalar tail computes for the same element:
//   exp:  Cody–Waite reduction x = k·ln2 + r (k taken with the 1.5·2^mantissa
//         magic-number add), the Cephes rational (double) or polynomial
//         (float) for e^r, then a 2^k scale applied in two halves so results
//         underflow to 0 and overflow to inf the way std::exp does;
//   sigmoid: 1 / (1 + exp(-x)), saturating to exactly 0 and 1;
//   tanh: the Cephes odd rational for |x| < 0.625 and 1 − 2/(e^{2|x|} + 1)
//         with the sign restored above it, both computed and one selected.
// NaN in gives NaN out (the clamps keep NaN), so fault::all_finite still
// catches a broken forecast. Agreement with libm is bounded by
// verify::kActivationUlpBound / kActivationUlpBoundFloat. Training, the
// layered forward and the kReference oracle keep the libm functions of
// nn/activation.hpp.
#pragma once

#include <cstddef>

#include "nn/activation.hpp"

namespace ld::nn {

/// x[i] = 1 / (1 + e^{-x[i]}) for i in [0, n).
template <typename T>
void sigmoid_inplace(T* x, std::size_t n) noexcept;

/// x[i] = tanh(x[i]) for i in [0, n).
template <typename T>
void tanh_inplace(T* x, std::size_t n) noexcept;

/// x[i] = activate(activation, x[i]) for i in [0, n), with the kernels above
/// standing in for the libm sigmoid and tanh.
template <typename T>
void activate_inplace(Activation activation, T* x, std::size_t n) noexcept;

}  // namespace ld::nn

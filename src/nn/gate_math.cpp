#include "nn/gate_math.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

namespace ld::nn {

namespace {

// Per-type constants. Range reduction and the e^r approximations follow
// Cephes exp/expf and tanh/tanhf (S. L. Moshier).
template <typename T>
struct GateMath;

template <>
struct GateMath<double> {
  using Bits = std::uint64_t;
  static constexpr int kMantissaBits = 52;
  static constexpr Bits kExponentBias = 1023;
  static constexpr double kMagic = 0x1.8p52;  // adding it rounds to an integer
  // exp(kExpLo) is 0 and exp(kExpHi) is inf once scaled; between them the
  // two 2^(k/2) halves stay normal.
  static constexpr double kExpLo = -746.0;
  static constexpr double kExpHi = 710.0;
  static constexpr double kLog2e = 1.4426950408889634073599;
  static constexpr double kLn2Hi = 6.93145751953125e-1;
  static constexpr double kLn2Lo = 1.42860682030941723212e-6;

  /// e^r for |r| <= ln2/2: Cephes Padé form 1 + 2·r·P(r²) / (Q(r²) − r·P(r²)).
  static double exp_reduced(double r) noexcept {
    const double z = r * r;
    const double px =
        r * ((1.26177193074810590878e-4 * z + 3.02994407707441961300e-2) * z +
             9.99999999999999999910e-1);
    const double qx = ((3.00198505138664455042e-6 * z + 2.52448340349684104192e-3) * z +
                       2.27265548208155028766e-1) *
                          z +
                      2.00000000000000000009e0;
    return 1.0 + 2.0 * (px / (qx - px));
  }

  /// tanh(x) for |x| < 0.625: x + x·z·P(z)/Q(z), z = x².
  static double tanh_small(double x) noexcept {
    const double z = x * x;
    const double p = (-9.64399179425052238628e-1 * z - 9.92877231001918586564e1) * z -
                     1.61468768441708447952e3;
    const double q = ((z + 1.12811678491632931402e2) * z + 2.23548839060100448583e3) * z +
                     4.84406305325125486048e3;
    return x + x * z * (p / q);
  }
};

template <>
struct GateMath<float> {
  using Bits = std::uint32_t;
  static constexpr int kMantissaBits = 23;
  static constexpr Bits kExponentBias = 127;
  static constexpr float kMagic = 0x1.8p23f;
  static constexpr float kExpLo = -104.0f;
  static constexpr float kExpHi = 89.0f;
  static constexpr float kLog2e = 1.44269504088896341f;
  static constexpr float kLn2Hi = 0.693359375f;
  static constexpr float kLn2Lo = -2.12194440e-4f;

  /// e^r for |r| <= ln2/2: Cephes expf polynomial 1 + r + r²·P(r).
  static float exp_reduced(float r) noexcept {
    const float z = r * r;
    const float p =
        ((((1.9875691500e-4f * r + 1.3981999507e-3f) * r + 8.3334519073e-3f) * r +
          4.1665795894e-2f) *
             r +
         1.6666665459e-1f) *
            r +
        5.0000001201e-1f;
    return p * z + r + 1.0f;
  }

  /// tanh(x) for |x| < 0.625: x + x·z·P(z), z = x² (Cephes tanhf).
  static float tanh_small(float x) noexcept {
    const float z = x * x;
    const float p = (((-5.70498872745e-3f * z + 2.06390887954e-2f) * z - 5.37397155531e-2f) * z +
                     1.33314422036e-1f) *
                        z -
                    3.33332819422e-1f;
    return p * z * x + x;
  }
};

/// 2^k for an integer-valued k whose biased exponent k + bias is in
/// [1, 2·bias]: k + kMagic holds k in its low mantissa bits, and shifting
/// them into the exponent field drops the magic number's own bits.
template <typename T>
T pow2(T k) noexcept {
  using M = GateMath<T>;
  const auto bits = std::bit_cast<typename M::Bits>(static_cast<T>(k + M::kMagic));
  return std::bit_cast<T>(static_cast<typename M::Bits>((bits + M::kExponentBias)
                                                        << M::kMantissaBits));
}

// The per-element kernels below are always inlined: a call left inside a
// loop keeps that loop from vectorising.

/// e^x without libm. The clamps are written so a NaN passes through them.
template <typename T>
[[gnu::always_inline]] inline T exp_kernel(T x) noexcept {
  using M = GateMath<T>;
  x = x < M::kExpLo ? M::kExpLo : x;
  x = x > M::kExpHi ? M::kExpHi : x;
  const T k = (x * M::kLog2e + M::kMagic) - M::kMagic;  // round to nearest
  const T r = (x - k * M::kLn2Hi) - k * M::kLn2Lo;
  // Scale in two halves: each 2^half is normal, and the second product
  // rounds to a subnormal, 0 or inf exactly where the full result does.
  const T half = (k * T(0.5) + M::kMagic) - M::kMagic;
  return M::exp_reduced(r) * pow2(half) * pow2(k - half);
}

template <typename T>
[[gnu::always_inline]] inline T sigmoid_kernel(T x) noexcept {
  return T(1) / (T(1) + exp_kernel(-x));
}

template <typename T>
[[gnu::always_inline]] inline T tanh_kernel(T x) noexcept {
  const T a = std::abs(x);
  const T small = GateMath<T>::tanh_small(a);
  const T large = T(1) - T(2) / (exp_kernel(a + a) + T(1));
  return std::copysign(a < T(0.625) ? small : large, x);
}

template <typename T>
[[gnu::always_inline]] inline T softsign_kernel(T x) noexcept {
  return x / (T(1) + std::abs(x));
}

}  // namespace

template <typename T>
void sigmoid_inplace(T* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = sigmoid_kernel(x[i]);
}

template <typename T>
void tanh_inplace(T* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = tanh_kernel(x[i]);
}

template <typename T>
void activate_inplace(Activation activation, T* x, std::size_t n) noexcept {
  switch (activation) {
    case Activation::kTanh: tanh_inplace(x, n); return;
    case Activation::kSigmoid: sigmoid_inplace(x, n); return;
    case Activation::kSoftsign:
      for (std::size_t i = 0; i < n; ++i) x[i] = softsign_kernel(x[i]);
      return;
  }
}

template void sigmoid_inplace<double>(double*, std::size_t) noexcept;
template void sigmoid_inplace<float>(float*, std::size_t) noexcept;
template void tanh_inplace<double>(double*, std::size_t) noexcept;
template void tanh_inplace<float>(float*, std::size_t) noexcept;
template void activate_inplace<double>(Activation, double*, std::size_t) noexcept;
template void activate_inplace<float>(Activation, float*, std::size_t) noexcept;

}  // namespace ld::nn

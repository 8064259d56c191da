// Tests for the verification harness (DESIGN.md §11/§12): the golden-file
// framework, ULP helpers, and the differential kernel suite that enforces
// the documented agreement bounds — reference vs blocked, reference vs the
// AVX2/AVX-512 SIMD tiers (serial and ThreadPool-parallel), and the fused
// single-timestep inference path (fp64 and int8-quantized).
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "core/model.hpp"
#include "nn/gate_math.hpp"
#include "nn/network.hpp"
#include "serving/service.hpp"
#include "tensor/cpu_features.hpp"
#include "tensor/matrix.hpp"
#include "test_util.hpp"
#include "verify/golden.hpp"
#include "verify/ulp.hpp"

namespace {

using namespace ld;

// ---------------------------------------------------------------------------
// ULP distance

TEST(Ulp, IdenticalAndAdjacentValues) {
  EXPECT_EQ(verify::ulp_distance(1.5, 1.5), 0u);
  EXPECT_EQ(verify::ulp_distance(0.0, -0.0), 0u);
  const double up = std::nextafter(1.5, 2.0);
  EXPECT_EQ(verify::ulp_distance(1.5, up), 1u);
  EXPECT_EQ(verify::ulp_distance(up, 1.5), 1u);
  // The float overload counts representable floats, not doubles.
  EXPECT_EQ(verify::ulp_distance(1.5f, std::nextafter(1.5f, 2.0f)), 1u);
  EXPECT_EQ(verify::ulp_distance(std::nextafter(0.0f, 1.0f), std::nextafter(0.0f, -1.0f)), 2u);
}

TEST(Ulp, MeasuresThroughZeroAndFlagsNonFinite) {
  const double pos = std::nextafter(0.0, 1.0);
  const double neg = std::nextafter(0.0, -1.0);
  EXPECT_EQ(verify::ulp_distance(pos, neg), 2u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(verify::ulp_distance(nan, 1.0), ~0ULL);
  EXPECT_EQ(verify::ulp_distance(nan, nan), 0u);  // both-NaN counts as agreement
  EXPECT_EQ(verify::ulp_distance(inf, inf), 0u);
  EXPECT_EQ(verify::ulp_distance(inf, -inf), ~0ULL);
  EXPECT_EQ(verify::ulp_distance(inf, 1.0), ~0ULL);
}

TEST(Ulp, MaxOverSpansAndLengthMismatch) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b = a;
  EXPECT_EQ(verify::max_ulp_distance(a, b), 0u);
  b[1] = std::nextafter(b[1], 10.0);
  EXPECT_EQ(verify::max_ulp_distance(a, b), 1u);
  b.push_back(4.0);
  EXPECT_EQ(verify::max_ulp_distance(a, b), ~0ULL);
}

// ---------------------------------------------------------------------------
// Golden snapshot framework

TEST(Golden, ToleranceSemantics) {
  verify::Snapshot golden;
  golden.set("m.abs", 10.0, /*abs_tol=*/0.5);
  golden.set("m.rel", 100.0, /*abs_tol=*/0.0, /*rel_tol=*/0.05);

  verify::Snapshot within;
  within.set("m.abs", 10.4);
  within.set("m.rel", 104.9);
  EXPECT_TRUE(golden.check(within).empty());

  verify::Snapshot outside;
  outside.set("m.abs", 10.6);
  outside.set("m.rel", 106.0);
  const auto diffs = golden.check(outside);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].key, "m.abs");
  EXPECT_NE(diffs[0].message.find("10.6"), std::string::npos)
      << "diff must show the actual value: " << diffs[0].message;
}

TEST(Golden, StructuralDiffs) {
  verify::Snapshot golden;
  golden.set("kept", 1.0);
  golden.set("missing_in_actual", 2.0);
  golden.set_text("kind", "text_here");

  verify::Snapshot actual;
  actual.set("kept", 1.0);
  actual.set("kind", 3.0);       // kind mismatch: golden has text
  actual.set("new_field", 4.0);  // not in the golden file

  const auto diffs = golden.check(actual);
  ASSERT_EQ(diffs.size(), 3u);  // missing + kind mismatch + new field
  bool saw_missing = false, saw_new = false;
  for (const auto& d : diffs) {
    if (d.key == "missing_in_actual") saw_missing = true;
    if (d.key == "new_field") saw_new = true;
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_new);
}

TEST(Golden, JsonRoundTripIsCanonical) {
  verify::Snapshot snap;
  snap.set("pi", 3.141592653589793, 1e-12);
  snap.set("third", 1.0 / 3.0, 0.0, 1e-9);
  snap.set("huge", 1e300);
  snap.set("neg", -0.0);
  snap.set_text("label", "line1\nline2 \"quoted\"");

  const std::string json = snap.to_json();
  const verify::Snapshot reparsed = verify::Snapshot::from_json(json);
  EXPECT_EQ(reparsed.to_json(), json) << "to_json(from_json(x)) must be bit-identical";
  EXPECT_TRUE(snap.check(reparsed).empty());
  EXPECT_TRUE(reparsed.check(snap).empty());
}

TEST(Golden, FormatDoubleRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e300, 2.2250738585072014e-308, -1.5,
                         123456789.123456789, 0.0}) {
    const std::string s = verify::format_double(v);
    double back = 0.0;
    ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
    EXPECT_EQ(back, v) << "'" << s << "' must parse back to the exact double";
  }
}

TEST(Golden, SaveLoadAndPerturbationFails) {
  testutil::ScopedTempDir dir("golden_saveload");
  verify::Snapshot snap;
  snap.set("mape", 12.5, 0.0, 0.05);
  snap.set_text("crc", "deadbeef");
  const std::string path = dir.file("gate.json");
  snap.save(path);

  const verify::Snapshot loaded = verify::Snapshot::load(path);
  EXPECT_TRUE(loaded.check(snap).empty());

  verify::Snapshot perturbed;
  perturbed.set("mape", 12.5 * 1.06);  // 6% off against a 5% band
  perturbed.set_text("crc", "deadbeef");
  EXPECT_EQ(loaded.check(perturbed).size(), 1u);
}

TEST(Golden, RejectsMalformedJsonWithPosition) {
  EXPECT_THROW((void)verify::Snapshot::from_json("{\"a\": {\"value\": }}"),
               std::runtime_error);
  EXPECT_THROW((void)verify::Snapshot::from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)verify::Snapshot::from_json(""), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Differential GEMM: reference scalar kernels vs production blocked kernels

// Positive operands on purpose: every dot product is a sum of positive terms,
// so no cancellation and the ULP bound measures real kernel divergence (FMA
// contraction / vectorization). With signed data a near-zero output can sit
// thousands of ULPs from an absolutely-tiny difference (see verify/ulp.hpp).
tensor::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(0.5, 2.0);
  return m;
}

TEST(DifferentialGemm, BlockedMatchesReferenceWithinBound) {
  Rng rng(42);
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                               {3, 5, 7},
                               {17, 33, 9},
                               {64, 64, 64},
                               {120, 70, 50}}) {
    const tensor::Matrix a = random_matrix(m, k, rng);
    const tensor::Matrix b = random_matrix(k, n, rng);

    tensor::Matrix blocked;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
      blocked = tensor::matmul(a, b);
    }
    tensor::Matrix reference;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      reference = tensor::matmul(a, b);
    }
    EXPECT_LE(verify::max_ulp_distance(blocked.flat(), reference.flat()),
              verify::kGemmUlpBound)
        << "matmul " << m << "x" << k << "x" << n;
  }
}

TEST(DifferentialGemm, TransposedVariantsMatchReference) {
  Rng rng(7);
  const std::size_t m = 31, k = 45, n = 23;
  const tensor::Matrix a = random_matrix(k, m, rng);   // used as A^T * B
  const tensor::Matrix b = random_matrix(k, n, rng);
  const tensor::Matrix c = random_matrix(m, k, rng);   // used as C * D^T
  const tensor::Matrix d = random_matrix(n, k, rng);

  tensor::Matrix atb_blocked(m, n), atb_reference(m, n);
  tensor::Matrix abt_blocked(m, n), abt_reference(m, n);
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    tensor::matmul_at_b_into(a, b, atb_blocked);
    tensor::matmul_a_bt_into(c, d, abt_blocked);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_at_b_into(a, b, atb_reference);
    tensor::matmul_a_bt_into(c, d, abt_reference);
  }
  EXPECT_LE(verify::max_ulp_distance(atb_blocked.flat(), atb_reference.flat()),
            verify::kGemmUlpBound);
  EXPECT_LE(verify::max_ulp_distance(abt_blocked.flat(), abt_reference.flat()),
            verify::kGemmUlpBound);
}

TEST(DifferentialGemm, AccumulateVariantAgrees) {
  Rng rng(11);
  const tensor::Matrix a = random_matrix(19, 27, rng);
  const tensor::Matrix b = random_matrix(27, 13, rng);
  const tensor::Matrix seed = random_matrix(19, 13, rng);

  tensor::Matrix blocked = seed, reference = seed;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    tensor::matmul_into(a, b, blocked, /*accumulate=*/true);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_into(a, b, reference, /*accumulate=*/true);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked.flat(), reference.flat()),
            verify::kGemmUlpBound);
}

TEST(DifferentialGemm, KernelModeIsThreadLocal) {
  // Selecting the reference kernel on this thread must not leak into other
  // threads: a fresh thread still starts at the dispatched production tier
  // (default_kernel_mode() — LD_KERNEL/CPUID). (A ThreadPool::submit would
  // not prove this — it executes inline on the caller when the pool has no
  // workers.)
  Rng rng(3);
  const tensor::Matrix a = random_matrix(40, 40, rng);
  const tensor::Matrix b = random_matrix(40, 40, rng);
  tensor::Matrix dispatched;
  {
    tensor::ScopedKernelMode pin(tensor::default_kernel_mode());
    dispatched = tensor::matmul(a, b);
  }

  tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
  ASSERT_EQ(tensor::kernel_mode(), tensor::KernelMode::kReference);
  tensor::KernelMode seen = tensor::KernelMode::kReference;
  tensor::Matrix from_thread;
  std::thread worker([&] {
    seen = tensor::kernel_mode();
    from_thread = tensor::matmul(a, b);
  });
  worker.join();
  EXPECT_EQ(seen, tensor::default_kernel_mode())
      << "a fresh thread must default to the dispatched production tier";
  EXPECT_EQ(verify::max_ulp_distance(from_thread.flat(), dispatched.flat()), 0u)
      << "cross-thread result must be bit-identical to the dispatched tier";
}

// ---------------------------------------------------------------------------
// SIMD tiers (DESIGN.md §12): AVX2/AVX-512 micro-kernels, serial and
// ThreadPool-parallel, against the scalar reference. Skipped (not failed)
// when the host or build lacks the ISA — the LD_ENABLE_SIMD=OFF CI job
// exercises exactly that fallback.

std::vector<tensor::KernelMode> supported_simd_tiers() {
  std::vector<tensor::KernelMode> tiers;
  for (const tensor::KernelMode mode :
       {tensor::KernelMode::kAvx2, tensor::KernelMode::kAvx512})
    if (tensor::kernel_mode_supported(mode)) tiers.push_back(mode);
  return tiers;
}

/// Every production GEMM tier this host runs: forecasts take the fused path
/// on each of them, so the fused tests cover them all, SIMD build or not.
std::vector<tensor::KernelMode> production_tiers() {
  std::vector<tensor::KernelMode> tiers{tensor::KernelMode::kBlocked};
  for (const tensor::KernelMode mode : supported_simd_tiers()) tiers.push_back(mode);
  return tiers;
}

TEST(DifferentialGemm, SimdTiersMatchReferenceWithinBound) {
  const auto tiers = supported_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD kernel tier available on this host";
  Rng rng(42);
  // Shapes straddle the micro-tile geometry (MR=4/8, 8/16-wide panels) and
  // the small-size crossover: remainder rows, masked tail columns, and one
  // sub-crossover case that must delegate to the reference loop.
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{1, 1, 1},
                               {3, 5, 7},
                               {8, 8, 8},
                               {17, 33, 9},
                               {64, 64, 64},
                               {120, 70, 50},
                               {65, 31, 97}}) {
    const tensor::Matrix a = random_matrix(m, k, rng);
    const tensor::Matrix b = random_matrix(k, n, rng);
    tensor::Matrix reference;
    {
      tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      reference = tensor::matmul(a, b);
    }
    for (const tensor::KernelMode tier : tiers) {
      tensor::ScopedKernelMode mode(tier);
      const tensor::Matrix simd = tensor::matmul(a, b);
      EXPECT_LE(verify::max_ulp_distance(simd.flat(), reference.flat()),
                verify::kSimdGemmUlpBound)
          << tensor::kernel_mode_name(tier) << " matmul " << m << "x" << k << "x" << n;
    }
  }
}

TEST(DifferentialGemm, SimdTransposedAndAccumulateVariantsMatchReference) {
  const auto tiers = supported_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD kernel tier available on this host";
  Rng rng(7);
  const std::size_t m = 31, k = 45, n = 23;
  const tensor::Matrix a = random_matrix(k, m, rng);  // used as A^T * B
  const tensor::Matrix b = random_matrix(k, n, rng);
  const tensor::Matrix c = random_matrix(m, k, rng);  // used as C * D^T
  const tensor::Matrix d = random_matrix(n, k, rng);
  const tensor::Matrix e = random_matrix(k, n, rng);  // accumulate multiplicand
  const tensor::Matrix seed = random_matrix(m, n, rng);  // accumulate seed

  tensor::Matrix atb_ref(m, n), abt_ref(m, n);
  tensor::Matrix acc_ref = seed;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    tensor::matmul_at_b_into(a, b, atb_ref);
    tensor::matmul_a_bt_into(c, d, abt_ref);
    tensor::matmul_into(c, e, acc_ref, /*accumulate=*/true);
  }
  for (const tensor::KernelMode tier : tiers) {
    tensor::Matrix atb(m, n), abt(m, n);
    tensor::Matrix acc = seed;
    tensor::ScopedKernelMode mode(tier);
    tensor::matmul_at_b_into(a, b, atb);
    tensor::matmul_a_bt_into(c, d, abt);
    tensor::matmul_into(c, e, acc, /*accumulate=*/true);
    const std::string name = tensor::kernel_mode_name(tier);
    EXPECT_LE(verify::max_ulp_distance(atb.flat(), atb_ref.flat()),
              verify::kSimdGemmUlpBound)
        << name << " matmul_at_b";
    EXPECT_LE(verify::max_ulp_distance(abt.flat(), abt_ref.flat()),
              verify::kSimdGemmUlpBound)
        << name << " matmul_a_bt";
    EXPECT_LE(verify::max_ulp_distance(acc.flat(), acc_ref.flat()),
              verify::kSimdGemmUlpBound)
        << name << " matmul_into(accumulate)";
  }
}

TEST(ParallelGemm, BitIdenticalAcrossPoolSizes) {
  // The row-panel partitioning gives every C element exactly one owning
  // micro-tile with a single ascending-k accumulation pass, so a parallel
  // GEMM is bit-identical to the serial one — for any pool size. This is the
  // determinism contract DESIGN.md §12 documents; the TSan job runs this
  // same test for data races.
  const auto tiers = supported_simd_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD kernel tier available on this host";
  Rng rng(17);
  // Big enough to clear kParallelMinFlops (2^22): 180*160*170 ≈ 4.9M flops.
  const tensor::Matrix a = random_matrix(180, 160, rng);
  const tensor::Matrix b = random_matrix(160, 170, rng);

  tensor::Matrix reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = tensor::matmul(a, b);
  }

  const std::size_t original_size = ThreadPool::global().size();
  for (const tensor::KernelMode tier : tiers) {
    tensor::ScopedKernelMode mode(tier);
    ThreadPool::set_global_size(1);
    const tensor::Matrix serial = tensor::matmul(a, b);
    for (const std::size_t workers : {4u, 3u}) {
      ThreadPool::set_global_size(workers);
      const tensor::Matrix parallel = tensor::matmul(a, b);
      EXPECT_EQ(verify::max_ulp_distance(parallel.flat(), serial.flat()), 0u)
          << tensor::kernel_mode_name(tier) << " with " << workers << " workers";
    }
    EXPECT_LE(verify::max_ulp_distance(serial.flat(), reference.flat()),
              verify::kSimdGemmUlpBound)
        << tensor::kernel_mode_name(tier);
  }
  ThreadPool::set_global_size(original_size);
}

// ---------------------------------------------------------------------------
// Differential LSTM + serving predict

std::shared_ptr<core::TrainedModel> quick_model(const std::vector<double>& series) {
  core::Hyperparameters hp;
  hp.history_length = 8;
  hp.cell_size = 6;
  hp.num_layers = 2;
  hp.batch_size = 16;
  core::ModelTrainingConfig config;
  config.trainer.max_epochs = 5;
  const std::size_t split = series.size() * 3 / 4;
  return std::make_shared<core::TrainedModel>(
      std::span<const double>(series.data(), split),
      std::span<const double>(series.data() + split, series.size() - split), hp, config,
      99);
}

TEST(DifferentialLstm, ForwardPassWithinBound) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  double blocked = 0.0, reference = 0.0;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_next(series);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_next(series);
  }
  EXPECT_LE(verify::ulp_distance(blocked, reference), verify::kLstmUlpBound);
}

TEST(DifferentialLstm, WalkForwardSeriesWithinBound) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  std::vector<double> blocked, reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_series(series, 120);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_series(series, 120);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked, reference), verify::kLstmUlpBound);
}

TEST(DifferentialLstm, RecursiveHorizonWithinPredictBound) {
  // The blocked tier forecasts through the fused single-timestep path, and
  // recursive multi-step feeds rounding differences back into the input, so
  // this path gets the fused-vs-layered bound.
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  std::vector<double> blocked, reference;
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    blocked = model->predict_horizon(series, 12);
  }
  {
    tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_horizon(series, 12);
  }
  EXPECT_LE(verify::max_ulp_distance(blocked, reference), verify::kFusedPredictUlpBound);
}

TEST(ServingDiff, LivePredictPassesDifferentialCheck) {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  serving::ServiceConfig config;
  config.background_retrain = false;
  serving::PredictionService service(config);
  service.publish("diffcheck", *model);
  service.observe_many("diffcheck", series);

  const testutil::CounterDelta mismatches("ld_verify_diff_mismatch_total",
                                          {{"workload", "diffcheck"}});
  serving::set_verify_diff(true);
  const auto result = service.predict_detailed("diffcheck", 6);
  serving::set_verify_diff(false);

  EXPECT_EQ(result.level, fault::DegradationLevel::kLive);
  ASSERT_EQ(result.forecast.size(), 6u);
  EXPECT_EQ(mismatches.delta(), 0u)
      << "fused predict diverged from the layered reference beyond kFusedPredictUlpBound";
}

TEST(ServingDiff, FusedLivePredictPassesDifferentialCheck) {
  // The service predict takes the fused single-timestep path on every
  // production tier while the LD_VERIFY_DIFF shadow recompute runs the
  // layered reference — so the check compares exactly fused against
  // layered, against kFusedPredictUlpBound.
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  serving::ServiceConfig config;
  config.background_retrain = false;
  serving::PredictionService service(config);
  service.publish("fuseddiff", *model);
  service.observe_many("fuseddiff", series);

  for (const tensor::KernelMode tier : production_tiers()) {
    const tensor::ScopedKernelMode mode(tier);
    const testutil::CounterDelta mismatches("ld_verify_diff_mismatch_total",
                                            {{"workload", "fuseddiff"}});
    serving::set_verify_diff(true);
    const auto result = service.predict_detailed("fuseddiff", 6);
    serving::set_verify_diff(false);

    EXPECT_EQ(result.level, fault::DegradationLevel::kLive);
    ASSERT_EQ(result.forecast.size(), 6u);
    EXPECT_EQ(mismatches.delta(), 0u)
        << tensor::kernel_mode_name(tier)
        << " fused predict diverged from the layered reference beyond "
           "kFusedPredictUlpBound";
  }
}

// ---------------------------------------------------------------------------
// Vectorised gate activations (nn/gate_math.hpp): the kernels step_fused
// applies to each gate block, checked against libm, at saturation, on NaN,
// and lane against scalar tail.

constexpr std::array<nn::Activation, 3> kAllActivations{
    nn::Activation::kSigmoid, nn::Activation::kTanh, nn::Activation::kSoftsign};

/// The libm form of each activation, evaluated in T.
template <typename T>
T libm_activation(nn::Activation activation, T x) {
  switch (activation) {
    case nn::Activation::kTanh: return std::tanh(x);
    case nn::Activation::kSigmoid: return T(1) / (T(1) + std::exp(-x));
    case nn::Activation::kSoftsign: return x / (T(1) + std::abs(x));
  }
  return x;
}

template <typename T>
T kernel_activation(nn::Activation activation, T x) {
  nn::activate_inplace(activation, &x, 1);
  return x;
}

template <typename T>
void expect_dense_grid_within_bound(std::uint64_t bound) {
  std::vector<T> grid;
  for (long i = -400000; i <= 400000; ++i) grid.push_back(static_cast<T>(i * 1e-4));
  for (const nn::Activation activation : kAllActivations) {
    std::vector<T> out = grid;
    nn::activate_inplace(activation, out.data(), out.size());
    std::uint64_t worst = 0;
    T worst_x = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const std::uint64_t d = verify::ulp_distance(out[i], libm_activation(activation, grid[i]));
      if (d > worst) worst = d, worst_x = grid[i];
    }
    EXPECT_LE(worst, bound) << nn::activation_name(activation) << " worst at x=" << worst_x;
  }
}

TEST(VectorActivations, DenseGridWithinUlpBoundOfLibm) {
  expect_dense_grid_within_bound<double>(verify::kActivationUlpBound);
  expect_dense_grid_within_bound<float>(verify::kActivationUlpBoundFloat);
}

template <typename T>
void expect_saturation() {
  const T inf = std::numeric_limits<T>::infinity();
  const T max = std::numeric_limits<T>::max();
  // e^|x| overflows from here on, so sigmoid(-x) is exactly 0 in libm too.
  const T exp_overflow = sizeof(T) == sizeof(float) ? T(89) : T(710);
  // From where each function rounds to its limit out to the largest finite
  // input, across the range where e^|x| itself overflows or underflows.
  for (const T x : {T(40), T(88), T(89), T(104), T(500), T(709), T(710), T(745), T(746),
                    T(1e4), max, inf}) {
    EXPECT_EQ(kernel_activation(nn::Activation::kSigmoid, x), T(1)) << x;
    EXPECT_EQ(kernel_activation(nn::Activation::kTanh, x), T(1)) << x;
    EXPECT_EQ(kernel_activation(nn::Activation::kTanh, -x), T(-1)) << x;
    if (x >= exp_overflow) {
      EXPECT_EQ(kernel_activation(nn::Activation::kSigmoid, -x), T(0)) << x;
    }
  }
  // No finite input yields inf or NaN, and every output stays in range.
  for (T magnitude = max; magnitude > T(1e-30); magnitude /= T(3)) {
    for (const T x : {magnitude, -magnitude}) {
      for (const nn::Activation activation : kAllActivations) {
        const T y = kernel_activation(activation, x);
        ASSERT_TRUE(std::isfinite(y)) << nn::activation_name(activation) << " at x=" << x;
        EXPECT_LE(std::abs(y), T(1)) << nn::activation_name(activation) << " at x=" << x;
      }
    }
  }
}

TEST(VectorActivations, LargeInputsSaturateExactly) {
  expect_saturation<double>();
  expect_saturation<float>();
}

template <typename T>
void expect_nan_propagates() {
  // One NaN inside a vector-length array poisons only its own element: a
  // clamp written as max(min(x, hi), lo) would turn it into a finite gate,
  // and fault::all_finite would then pass a broken forecast as live.
  for (const T nan : {std::numeric_limits<T>::quiet_NaN(), -std::numeric_limits<T>::quiet_NaN()}) {
    for (const nn::Activation activation : kAllActivations) {
      std::vector<T> values(13, T(0.25));
      values[6] = nan;
      nn::activate_inplace(activation, values.data(), values.size());
      for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(std::isnan(values[i]), i == 6) << nn::activation_name(activation) << " i=" << i;
    }
  }
}

TEST(VectorActivations, NanInGivesNanOut) {
  expect_nan_propagates<double>();
  expect_nan_propagates<float>();
}

template <typename T>
void expect_lanes_match_tail() {
  // The vectorised body and the scalar tail must compute the same bits, or
  // a forecast would depend on where its gate block starts in memory and on
  // the hidden size's remainder modulo the vector width. Each block runs in
  // place at an element offset into one buffer, and nothing outside it may
  // change.
  Rng rng(17);
  std::vector<T> source(80);
  for (T& v : source) v = static_cast<T>(rng.uniform(-30.0, 30.0));
  source[5] = T(0.3);  // inside tanh's small-argument branch
  const auto same_bits = [](T a, T b) { return std::memcmp(&a, &b, sizeof(T)) == 0; };
  for (const nn::Activation activation : kAllActivations) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 1; n <= 67; ++n) {
        std::vector<T> buffer = source;
        nn::activate_inplace(activation, buffer.data() + offset, n);
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          const bool inside = i >= offset && i < offset + n;
          const T expected = inside ? kernel_activation(activation, source[i]) : source[i];
          ASSERT_TRUE(same_bits(buffer[i], expected))
              << nn::activation_name(activation) << " offset " << offset << " n " << n
              << " i " << i;
        }
      }
    }
  }
}

TEST(VectorActivations, LanesBitIdenticalToScalarTail) {
  expect_lanes_match_tail<double>();
  expect_lanes_match_tail<float>();
}

// ---------------------------------------------------------------------------
// Fused single-timestep inference (DESIGN.md §12): forward_one vs the
// layered forward, unit-level for both cell types and end-to-end through the
// trained predict path.

TEST(DifferentialFused, ForwardOneMatchesLayeredForwardBothCells) {
  // Unit-level, host-independent: forward_one is scalar code, so it runs
  // (and must agree) even when no SIMD GEMM tier exists. Untrained-network
  // outputs can sit near zero where ULP distances blow up, so this test uses
  // a relative tolerance instead (the regrouped accumulation agrees to
  // ~1e-13 relative in practice).
  nn::set_quantized_inference(false);
  for (const nn::CellType cell : {nn::CellType::kLstm, nn::CellType::kGru}) {
    nn::LstmNetworkConfig cfg;
    cfg.hidden_size = 16;
    cfg.num_layers = 2;
    cfg.cell = cell;
    nn::LstmNetwork net(cfg, 7);
    Rng rng(5);
    std::vector<double> window(24);
    for (double& v : window) v = rng.uniform(0.5, 2.0);
    tensor::Matrix x(1, window.size());
    for (std::size_t t = 0; t < window.size(); ++t) x(0, t) = window[t];

    double layered = 0.0;
    {
      // kReference keeps forward() on the layered path regardless of host.
      const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
      layered = net.forward(x)[0];
    }
    const double fused = net.forward_one(window);
    EXPECT_NEAR(fused, layered, 1e-9 * std::max(1.0, std::abs(layered)))
        << nn::cell_type_name(cell);
  }
}

TEST(DifferentialFused, TrainedPredictWithinFusedBound) {
  // One-step and recursive multi-step forecasts on every production tier
  // against the layered reference forward (a kReference-pinned thread).
  nn::set_quantized_inference(false);
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);

  double reference = 0.0;
  std::vector<double> horizon_ref;
  {
    const tensor::ScopedKernelMode mode(tensor::KernelMode::kReference);
    reference = model->predict_next(series);
    horizon_ref = model->predict_horizon(series, 12);
  }
  for (const tensor::KernelMode tier : production_tiers()) {
    const tensor::ScopedKernelMode mode(tier);
    const double fused = model->predict_next(series);
    const std::vector<double> horizon = model->predict_horizon(series, 12);
    const std::string name = tensor::kernel_mode_name(tier);
    EXPECT_LE(verify::ulp_distance(fused, reference), verify::kFusedPredictUlpBound)
        << name << " predict_next";
    EXPECT_LE(verify::max_ulp_distance(horizon, horizon_ref),
              verify::kFusedPredictUlpBound)
        << name << " predict_horizon";
  }
}

TEST(DifferentialFused, RollingHorizonMatchesPredictNextOverExtendedHistory) {
  // predict_horizon rolls one scaled window forward; it must reproduce, bit
  // for bit, predict_next over the history extended by each forecast —
  // including a history shorter than the window, where the left-padding
  // must shift out exactly as the extended history's would.
  nn::set_quantized_inference(false);
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);
  const std::size_t window = model->snapshot().effective_window;
  ASSERT_GT(window, 3u);

  for (const tensor::KernelMode tier :
       {tensor::default_kernel_mode(), tensor::KernelMode::kReference}) {
    const tensor::ScopedKernelMode mode(tier);
    for (const std::size_t length : {std::size_t{3}, series.size()}) {
      const std::span<const double> history(series.data(), length);
      const std::size_t steps = window + 4;  // long enough to roll out all padding
      const std::vector<double> horizon = model->predict_horizon(history, steps);
      std::vector<double> extended(history.begin(), history.end());
      ASSERT_EQ(horizon.size(), steps);
      for (std::size_t s = 0; s < steps; ++s) {
        const double next = model->predict_next(extended);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(horizon[s]), std::bit_cast<std::uint64_t>(next))
            << tensor::kernel_mode_name(tier) << " history " << length << " step " << s;
        extended.push_back(next);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Quantization guardrail (ISSUE satellite): int8 row-quantized inference is
// a deliberate approximation, so it is bounded in model-quality units — the
// fig9-style walk-forward test MAPE may exceed the fp64 MAPE by at most
// verify::kQuantMapeTolerancePp percentage points.

/// Walk-forward fp64 and int8 forecasts of the test tail on the calling
/// thread's kernel tier: the int8 path must engage (forecasts change) and
/// stay within the MAPE guardrail.
void expect_quantized_within_guardrail() {
  const std::vector<double> series = testutil::seasonal_series(160, 100.0, 15.0, 24.0, 5);
  const auto model = quick_model(series);
  const std::size_t test_start = 120;

  const auto walk_forward = [&](bool quantized) {
    nn::set_quantized_inference(quantized);
    std::vector<double> preds;
    preds.reserve(series.size() - test_start);
    for (std::size_t i = test_start; i < series.size(); ++i)
      preds.push_back(model->predict_next({series.data(), i}));
    return preds;
  };
  const std::vector<double> fp64_preds = walk_forward(false);
  const std::vector<double> int8_preds = walk_forward(true);
  nn::set_quantized_inference(false);

  const std::span<const double> actual(series.data() + test_start,
                                       series.size() - test_start);
  const double fp64_mape = metrics::mape(actual, fp64_preds);
  const double int8_mape = metrics::mape(actual, int8_preds);
  EXPECT_NE(fp64_preds, int8_preds)
      << tensor::kernel_mode_name(tensor::kernel_mode())
      << ": quantized inference produced bit-identical forecasts — the int8 "
         "path did not engage";
  EXPECT_LE(std::abs(int8_mape - fp64_mape), verify::kQuantMapeTolerancePp)
      << "fp64 MAPE " << fp64_mape << "% vs int8 MAPE " << int8_mape << "%";
}

TEST(QuantizedInference, WalkForwardMapeWithinGuardrail) {
  const tensor::ScopedKernelMode mode(tensor::default_kernel_mode());
  expect_quantized_within_guardrail();
}

TEST(QuantizedInference, AppliesOnBlockedTier) {
  // --quant / LD_QUANT=1 must not depend on the GEMM tier.
  const tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
  expect_quantized_within_guardrail();
}

// ---------------------------------------------------------------------------
// BO trajectories: the batched (constant-liar) search must retrace the
// serial search exactly — zero ULP, not merely "close".

TEST(DifferentialBo, BatchedTrajectoryMatchesSerialExactly) {
  const std::vector<double> series = testutil::seasonal_series(220, 100.0, 15.0, 24.0, 9);
  const std::span<const double> train(series.data(), 160);
  const std::span<const double> validation(series.data() + 160, 60);

  core::LoadDynamicsConfig cfg;
  cfg.space = core::HyperparameterSpace::reduced();
  cfg.max_iterations = 4;
  cfg.initial_random = 2;
  cfg.training.trainer.max_epochs = 3;
  cfg.training.max_train_windows = 400;
  cfg.seed = 31;

  cfg.batch_size = 1;
  const core::FitResult serial = core::LoadDynamics(cfg).fit(train, validation);
  cfg.batch_size = 4;
  const core::FitResult batched = core::LoadDynamics(cfg).fit(train, validation);

  EXPECT_EQ(verify::max_ulp_distance(serial.incumbent_trace(), batched.incumbent_trace()),
            0u);
  EXPECT_EQ(serial.best_record().hyperparameters, batched.best_record().hyperparameters);
}

// ---------------------------------------------------------------------------
// Metrics registry isolation (test_util satellite)

TEST(MetricsReset, RetiredCountersStopBeingScrapedButStayValid) {
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& before = reg.counter("ld_test_reset_total");
  before.inc(5);
  EXPECT_EQ(testutil::counter_value("ld_test_reset_total"), 5u);

  testutil::reset_metrics();
  // A cached reference survives the reset (graveyard semantics)...
  before.inc();  // must not crash
  // ...but the registry starts over: a re-resolve sees a fresh instrument.
  EXPECT_EQ(testutil::counter_value("ld_test_reset_total"), 0u);
  EXPECT_EQ(reg.prometheus_text().find("ld_test_reset_total 6"), std::string::npos);
}

TEST(MetricsReset, CounterDeltaIgnoresPriorState) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("ld_test_delta_total").inc(17);
  const testutil::CounterDelta delta("ld_test_delta_total");
  EXPECT_EQ(delta.delta(), 0u);
  reg.counter("ld_test_delta_total").inc(3);
  EXPECT_EQ(delta.delta(), 3u);
}

}  // namespace

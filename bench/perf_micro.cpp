// Performance — microbenchmarks of the substrates: GEMM, LSTM training
// steps, GP fitting, EI maximization and the baseline predictors' fits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "baselines/cloudinsight.hpp"
#include "bayesopt/acquisition.hpp"
#include "bayesopt/gaussian_process.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "fault/injector.hpp"
#include "nn/dataset.hpp"
#include "nn/gate_math.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tensor/linalg.hpp"
#include "tensor/matrix.hpp"

namespace {

using namespace ld;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.flat()) v = rng.uniform();
  for (double& v : b.flat()) v = rng.uniform();
  for (auto _ : state) {
    tensor::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(128)->Arg(256);

void BM_GemmTiny(benchmark::State& state) {
  // Pins the small-size crossover (simd::kSimdMinFlops): at n=4 (128 flops)
  // the SIMD dispatcher must delegate to the scalar reference loop — packing
  // overhead dwarfs the multiply — while n=8 (1024 flops) and up run the
  // micro-kernels. A regression here means the crossover moved.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.flat()) v = rng.uniform();
  for (double& v : b.flat()) v = rng.uniform();
  for (auto _ : state) {
    tensor::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_GemmTiny)->Arg(4)->Arg(8)->Arg(16);

void BM_LstmStep(benchmark::State& state, std::size_t window_len, std::size_t layers) {
  // Single-window inference through a stacked network: the serving hot path.
  // Arg0 = hidden size, Arg1 = 1 for the fused single-timestep kernel
  // (forward_one, the forecast path on every tier), 0 for the layered
  // per-step GEMM path pinned to the blocked tier — the pre-fused forecast
  // path the fused kernel must beat.
  const auto hidden = static_cast<std::size_t>(state.range(0));
  const bool fused = state.range(1) != 0;
  nn::LstmNetwork net({.input_size = 1, .hidden_size = hidden, .num_layers = layers}, 11);
  Rng rng(12);
  std::vector<double> window(window_len);
  for (double& v : window) v = rng.uniform(0.5, 2.0);
  tensor::Matrix x(1, window.size());
  for (std::size_t t = 0; t < window.size(); ++t) x(0, t) = window[t];

  if (fused) {
    const nn::LstmNetwork& frozen = net;  // the const, thread-safe serving path
    for (auto _ : state) benchmark::DoNotOptimize(frozen.forward_one(window));
  } else {
    const tensor::ScopedKernelMode mode(tensor::KernelMode::kBlocked);
    for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(window.size()));
  state.SetLabel(std::string(fused ? "fused" : "layered/blocked") + " T=" +
                 std::to_string(window_len) + " L=" + std::to_string(layers));
}
// Table IV serving shapes: window 35, two layers.
void BM_LstmStep(benchmark::State& state) { BM_LstmStep(state, 35, 2); }
BENCHMARK(BM_LstmStep)->Args({32, 0})->Args({32, 1})->Args({98, 0})->Args({98, 1});
// The benchmark's forecast_fleet shapes (one layer; window, cell) =
// (8, 32), (26, 8), (48, 24): the smallest-window, smallest-cell and
// longest-window models it serves.
BENCHMARK_CAPTURE(BM_LstmStep, T8_L1, 8, 1)->Args({32, 1});
BENCHMARK_CAPTURE(BM_LstmStep, T26_L1, 26, 1)->Args({8, 1});
BENCHMARK_CAPTURE(BM_LstmStep, T48_L1, 48, 1)->Args({24, 1});

void BM_GateActivations(benchmark::State& state) {
  // The fused LSTM step's activations alone: sigmoid over the i/f and o
  // blocks and tanh over the g block of one 4H gate array (Arg0 = H).
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<double> input(4 * hidden);
  for (double& v : input) v = rng.uniform(-4.0, 4.0);
  std::vector<double> gates(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), gates.begin());
    nn::sigmoid_inplace(gates.data(), 2 * hidden);
    nn::activate_inplace(nn::Activation::kTanh, gates.data() + 2 * hidden, hidden);
    nn::sigmoid_inplace(gates.data() + 3 * hidden, hidden);
    benchmark::DoNotOptimize(gates.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(gates.size()));
}
BENCHMARK(BM_GateActivations)->Arg(8)->Arg(32)->Arg(98);

void BM_Cholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  tensor::Matrix a(n, n);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  tensor::Matrix spd(n, n);
  tensor::matmul_a_bt_into(a, a, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::cholesky(spd));
  }
}
BENCHMARK(BM_Cholesky)->Arg(50)->Arg(100)->Arg(200);

void BM_LstmTrainEpoch(benchmark::State& state) {
  const auto hidden = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> series(600);
  for (double& v : series) v = rng.uniform();
  const nn::SlidingWindowDataset data(series, 24);
  for (auto _ : state) {
    state.PauseTiming();
    nn::LstmNetwork net({.input_size = 1, .hidden_size = hidden, .num_layers = 1}, 5);
    state.ResumeTiming();
    nn::TrainerConfig tc;
    tc.max_epochs = 1;
    benchmark::DoNotOptimize(nn::train(net, data, nullptr, tc, 7));
  }
  state.SetLabel("window=24, 576 samples");
}
BENCHMARK(BM_LstmTrainEpoch)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GpFitPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  tensor::Matrix x(n, 4);
  std::vector<double> y(n);
  for (double& v : x.flat()) v = rng.uniform();
  for (double& v : y) v = rng.uniform();
  const std::vector<double> q{0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    bayesopt::GaussianProcess gp;
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.predict(q));
  }
  state.SetLabel("fit + 1 posterior query, incl. hyperparameter grid");
}
BENCHMARK(BM_GpFitPredict)->Arg(20)->Arg(50)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_EiBatch(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> means(2048), vars(2048);
  for (double& v : means) v = rng.uniform();
  for (double& v : vars) v = rng.uniform(0.001, 0.2);
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t i = 0; i < means.size(); ++i)
      total += bayesopt::expected_improvement(means[i], vars[i], 0.3);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_EiBatch);

void BM_GemmBlocked(benchmark::State& state) {
  // Aᵀ·B path — the gradient-accumulation GEMM used by every backward pass,
  // served by the register-blocked kernel.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  tensor::Matrix a(n, n), b(n, n), c(n, n);
  for (double& v : a.flat()) v = rng.uniform();
  for (double& v : b.flat()) v = rng.uniform();
  for (auto _ : state) {
    tensor::matmul_at_b_into(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_GemmBlocked)->Arg(32)->Arg(128)->Arg(256);

void BM_ParallelFit(benchmark::State& state) {
  // Full LoadDynamics fit with batched Bayesian optimization; Arg = thread
  // count. The model database is bit-identical across Args — only wall
  // clock changes. Restores the default pool size when done.
  const auto threads = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> series(480);
  series[0] = 100.0;
  for (std::size_t i = 1; i < series.size(); ++i)
    series[i] = 50.0 + 0.5 * series[i - 1] + 10.0 * std::sin(0.2 * static_cast<double>(i)) +
                rng.normal(0.0, 3.0);
  const std::span<const double> train(series.data(), 360);
  const std::span<const double> validation(series.data() + 360, 120);

  core::LoadDynamicsConfig cfg;
  cfg.space = core::HyperparameterSpace::reduced();
  cfg.space.history_max = 16;
  cfg.space.cell_max = 8;
  cfg.space.layers_max = 1;
  cfg.max_iterations = 6;
  cfg.initial_random = 3;
  cfg.training.trainer.max_epochs = 8;
  cfg.seed = 2020;
  cfg.batch_size = 4;

  ThreadPool::set_global_size(threads);
  const core::LoadDynamics framework(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(framework.fit(train, validation));
  }
  ThreadPool::set_global_size(ThreadPool::default_threads());
  state.SetLabel("batch_size=4, 3+6 evaluations");
}
BENCHMARK(BM_ParallelFit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ObsCounter(benchmark::State& state) {
  obs::Counter& counter = obs::MetricsRegistry::global().counter("bench_obs_counter");
  for (auto _ : state) counter.inc();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounter);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram("bench_obs_histogram", {}, 1e-7, 1e3);
  double v = 1e-6;
  for (auto _ : state) {
    hist.observe(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;  // sweep buckets, stay in range
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsTouchWorkloadDisabled(benchmark::State& state) {
  // The acceptance-criterion case: with no LD_METRICS_MAX_SERIES cap the
  // per-request touch hook must be a single relaxed load (~1-2 ns).
  obs::MetricsRegistry::global().set_max_series(0);
  for (auto _ : state) {
    obs::touch_workload("bench-workload");
    benchmark::DoNotOptimize(state.iterations());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsTouchWorkloadDisabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  // The acceptance-criterion case: tracing off, spans must be ~free.
  obs::Tracer::instance().stop();
  for (auto _ : state) {
    LD_TRACE_SPAN("bench.span");
    benchmark::DoNotOptimize(state.iterations());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_FaultPointDisabled(benchmark::State& state) {
  // The acceptance-criterion case: no faults configured, a fault point must
  // cost a single relaxed load (a few ns at most).
  fault::Injector::instance().reset();
  for (auto _ : state) {
    LD_FAULT_POINT("bench.fault");
    benchmark::DoNotOptimize(state.iterations());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointDisabled);

void BM_FaultPointEnabledMiss(benchmark::State& state) {
  // Injection on but for a different site: the worst case a production site
  // pays during a chaos drill (map lookup under the injector mutex).
  fault::Injector::instance().configure("other.site:p=1", 42);
  for (auto _ : state) {
    LD_FAULT_POINT("bench.fault");
    benchmark::DoNotOptimize(state.iterations());
  }
  fault::Injector::instance().reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointEnabledMiss);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::Tracer::instance().set_capacity(1 << 16);
  obs::Tracer::instance().start();
  std::size_t since_clear = 0;
  for (auto _ : state) {
    {
      LD_TRACE_SPAN("bench.span");
      benchmark::DoNotOptimize(since_clear);
    }
    // Keep the ring from filling (drops would make late iterations cheaper).
    if (++since_clear >= (1 << 15)) {
      state.PauseTiming();
      obs::Tracer::instance().clear();
      since_clear = 0;
      state.ResumeTiming();
    }
  }
  obs::Tracer::instance().stop();
  obs::Tracer::instance().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_CloudInsightStep(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> series(400);
  series[0] = 100.0;
  for (std::size_t i = 1; i < series.size(); ++i)
    series[i] = 50.0 + 0.5 * series[i - 1] + rng.normal(0.0, 5.0);
  baselines::CloudInsightPredictor ci({.light_pool = true});
  ci.fit(series);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ci.predict_next(series));
  }
  state.SetLabel("one council step, 21 members");
}
BENCHMARK(BM_CloudInsightStep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

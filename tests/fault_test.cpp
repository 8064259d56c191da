// Fault-tolerance layer: injector determinism and spec parsing, retry
// backoff schedules, watchdog supervision, the serving fallback chain and
// input sanitization. Suite names all carry "Fault" so the CI TSan job's
// filter picks them up alongside the serving suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "fault/fallback.hpp"
#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "serving/service.hpp"

namespace {

using namespace ld;

/// Every test leaves the process-wide injector off, whatever happens.
class InjectorGuard {
 public:
  InjectorGuard() { fault::Injector::instance().reset(); }
  ~InjectorGuard() { fault::Injector::instance().reset(); }
};

std::vector<double> seasonal(std::size_t n, double level = 100.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = level + 0.3 * level *
                         std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 12.0);
  return out;
}

std::shared_ptr<core::TrainedModel> quick_model(std::span<const double> series,
                                                std::uint64_t seed = 7) {
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 6;
  const core::Hyperparameters hp{.history_length = 12, .cell_size = 8, .num_layers = 1,
                                 .batch_size = 32};
  const std::size_t n_train = series.size() * 3 / 4;
  return std::make_shared<core::TrainedModel>(series.subspan(0, n_train),
                                              series.subspan(n_train), hp, training, seed);
}

serving::ServiceConfig quick_service() {
  serving::ServiceConfig cfg;
  cfg.background_retrain = false;
  cfg.adaptive.base.space = core::HyperparameterSpace::reduced();
  cfg.adaptive.base.space.history_max = 16;
  cfg.adaptive.base.space.cell_max = 12;
  cfg.adaptive.base.space.layers_max = 1;
  cfg.adaptive.base.training.trainer.max_epochs = 3;
  cfg.adaptive.refresh_candidates = 1;
  cfg.adaptive.retrain_history_cap = 120;
  return cfg;
}

TEST(FaultInjector, SpecParsingAcceptsAllKeys) {
  const auto sites = fault::parse_fault_spec(
      "checkpoint.write:p=0.3,retrain.hang:after=5:n=2:mode=sleep:ms=250");
  ASSERT_EQ(sites.size(), 2u);
  const auto& cw = sites.at("checkpoint.write");
  EXPECT_DOUBLE_EQ(cw.probability, 0.3);
  EXPECT_EQ(cw.after, 0u);
  EXPECT_EQ(cw.mode, fault::SiteSpec::Mode::kThrow);
  const auto& rh = sites.at("retrain.hang");
  EXPECT_DOUBLE_EQ(rh.probability, 1.0);
  EXPECT_EQ(rh.after, 5u);
  EXPECT_EQ(rh.max_fires, 2u);
  EXPECT_EQ(rh.mode, fault::SiteSpec::Mode::kSleep);
  EXPECT_DOUBLE_EQ(rh.sleep_ms, 250.0);
}

TEST(FaultInjector, SpecParsingRejectsMalformedInput) {
  EXPECT_THROW((void)fault::parse_fault_spec("site:p=zebra"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec("site:bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec(":p=1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec("site:p"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec("site:mode=explode"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec("site:p=1.5"), std::invalid_argument);
}

TEST(FaultInjector, DisabledInjectorIsInertAndCountsNothing) {
  const InjectorGuard guard;
  EXPECT_FALSE(fault::Injector::enabled());
  for (int i = 0; i < 100; ++i) {
    LD_FAULT_POINT("never.configured");
    EXPECT_FALSE(LD_FAULT_FIRES("never.configured"));
  }
  EXPECT_EQ(fault::Injector::instance().pass_count("never.configured"), 0u);
  EXPECT_EQ(fault::Injector::instance().total_fires(), 0u);
}

TEST(FaultInjector, DeterministicFireSequenceAcrossReconfigure) {
  const InjectorGuard guard;
  auto& injector = fault::Injector::instance();

  const auto sample = [&] {
    injector.configure("coin:p=0.5", 99);
    std::vector<bool> fires;
    fires.reserve(256);
    for (int i = 0; i < 256; ++i) fires.push_back(injector.fires("coin"));
    return fires;
  };
  const std::vector<bool> first = sample();
  const std::vector<bool> second = sample();
  EXPECT_EQ(first, second) << "same seed must replay the same fire sequence";

  // The sequence is a real mix, not all-or-nothing.
  const auto fired = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 64u);
  EXPECT_LT(fired, 192u);

  injector.configure("coin:p=0.5", 100);
  std::vector<bool> reseeded;
  for (int i = 0; i < 256; ++i) reseeded.push_back(injector.fires("coin"));
  EXPECT_NE(first, reseeded) << "a different seed must change the sequence";
}

TEST(FaultInjector, AfterSkipsPassesAndMaxFiresCaps) {
  const InjectorGuard guard;
  auto& injector = fault::Injector::instance();
  injector.configure("site:p=1:after=3:n=2", 1);
  std::vector<bool> fires;
  for (int i = 0; i < 8; ++i) fires.push_back(injector.fires("site"));
  const std::vector<bool> expected{false, false, false, true, true, false, false, false};
  EXPECT_EQ(fires, expected);
  EXPECT_EQ(injector.pass_count("site"), 8u);
  EXPECT_EQ(injector.fire_count("site"), 2u);
  EXPECT_EQ(injector.total_fires(), 2u);
}

TEST(FaultInjector, CheckThrowsForThrowModeAndSleepsForSleepMode) {
  const InjectorGuard guard;
  auto& injector = fault::Injector::instance();
  injector.configure("boom:p=1,nap:p=1:mode=sleep:ms=1", 5);

  try {
    LD_FAULT_POINT("boom");
    FAIL() << "throw-mode site did not throw";
  } catch (const fault::FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "boom");
  }
  EXPECT_EQ(injector.fire_count("boom"), 1u);

  EXPECT_NO_THROW(LD_FAULT_POINT("nap"));  // sleep mode blocks, never unwinds
  EXPECT_EQ(injector.fire_count("nap"), 1u);

  // delay() never throws, even for a throw-mode site (the pool-worker case).
  EXPECT_NO_THROW(LD_FAULT_DELAY("boom"));
  EXPECT_EQ(injector.fire_count("boom"), 2u);

  // Unknown sites pass through untouched while the injector is on.
  EXPECT_FALSE(injector.fires("unknown.site"));
  EXPECT_NO_THROW(LD_FAULT_POINT("unknown.site"));
}

TEST(FaultInjector, ConcurrentPassesAreCountedExactly) {
  const InjectorGuard guard;
  auto& injector = fault::Injector::instance();
  injector.configure("hot:p=0.5:mode=sleep:ms=0", 17);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 2000;
  std::atomic<std::uint64_t> observed{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < kPerThread; ++i)
        if (injector.fires("hot")) ++local;
      observed.fetch_add(local, std::memory_order_relaxed);
    });
  for (auto& th : workers) th.join();
  EXPECT_EQ(injector.pass_count("hot"), kThreads * kPerThread);
  EXPECT_EQ(injector.fire_count("hot"), observed.load());
}

TEST(FaultBackoff, ScheduleIsDeterministicCappedAndJittered) {
  fault::RetryPolicy policy;
  policy.initial_backoff_seconds = 0.05;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.4;
  policy.jitter = 0.25;

  Rng a(42), b(42);
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    const double wait_a = fault::backoff_seconds(policy, attempt, a);
    const double wait_b = fault::backoff_seconds(policy, attempt, b);
    EXPECT_EQ(wait_a, wait_b) << "same seed must produce the same schedule";
    const double base =
        std::min(0.05 * std::pow(2.0, static_cast<double>(attempt)), 0.4);
    EXPECT_GE(wait_a, base * 0.75);
    EXPECT_LE(wait_a, base * 1.25);
  }

  // Zero jitter: the schedule is exactly the capped exponential.
  policy.jitter = 0.0;
  Rng c(1);
  EXPECT_DOUBLE_EQ(fault::backoff_seconds(policy, 0, c), 0.05);
  EXPECT_DOUBLE_EQ(fault::backoff_seconds(policy, 1, c), 0.1);
  EXPECT_DOUBLE_EQ(fault::backoff_seconds(policy, 10, c), 0.4);
}

TEST(FaultWatchdog, CancelScopeNestsAndRestores) {
  EXPECT_FALSE(fault::cancellation_requested());
  fault::CancelToken outer;
  {
    const fault::CancelScope outer_scope(&outer);
    EXPECT_FALSE(fault::cancellation_requested());
    fault::CancelToken inner;
    inner.cancel();
    {
      const fault::CancelScope inner_scope(&inner);
      EXPECT_TRUE(fault::cancellation_requested());
    }
    EXPECT_FALSE(fault::cancellation_requested());  // back to the outer token
    outer.cancel();
    EXPECT_TRUE(fault::cancellation_requested());
  }
  EXPECT_FALSE(fault::cancellation_requested());
}

TEST(FaultWatchdog, ChildTokenFollowsParentAndDeadline) {
  fault::CancelToken parent;
  const fault::CancelToken child(&parent, 0.0);
  EXPECT_FALSE(child.cancelled());
  EXPECT_FALSE(child.expired()) << "timeout 0 sets no deadline";
  parent.cancel();
  EXPECT_TRUE(child.cancelled()) << "cancelling the parent cancels the child";
  EXPECT_FALSE(child.expired());

  const fault::CancelToken timed(nullptr, 0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(timed.expired());
  EXPECT_TRUE(timed.cancelled());

  // Huge and non-finite timeouts must not overflow the deadline arithmetic.
  EXPECT_FALSE(fault::CancelToken(nullptr, 1e300).cancelled());
  EXPECT_FALSE(fault::CancelToken(nullptr, std::numeric_limits<double>::infinity()).expired());
  EXPECT_FALSE(fault::CancelToken(nullptr, std::numeric_limits<double>::quiet_NaN()).expired());
}

TEST(FaultWatchdog, InlinePathClassifiesOutcomes) {
  std::string error;
  bool permanent = true;

  EXPECT_EQ(fault::run_with_deadline([] {}, 0.0, &error, &permanent),
            fault::TaskStatus::kCompleted);
  EXPECT_FALSE(permanent);

  EXPECT_EQ(fault::run_with_deadline([] { throw std::runtime_error("transient"); }, 0.0,
                                     &error, &permanent),
            fault::TaskStatus::kFailed);
  EXPECT_EQ(error, "transient");
  EXPECT_FALSE(permanent) << "runtime errors are retryable";

  EXPECT_EQ(fault::run_with_deadline([] { throw std::invalid_argument("bad config"); }, 0.0,
                                     &error, &permanent),
            fault::TaskStatus::kFailed);
  EXPECT_TRUE(permanent) << "invalid_argument means retrying cannot help";
}

TEST(FaultWatchdog, SupervisedPathCompletesFailsAndTimesOut) {
  std::string error;
  bool permanent = false;

  EXPECT_EQ(fault::run_with_deadline([] {}, 5.0, &error, &permanent),
            fault::TaskStatus::kCompleted);
  EXPECT_EQ(fault::run_with_deadline([] { throw std::logic_error("broken"); }, 5.0, &error,
                                     &permanent),
            fault::TaskStatus::kFailed);
  EXPECT_EQ(error, "broken");
  EXPECT_TRUE(permanent);

  // A cooperative hang: cancellable_sleep observes the deadline, so the
  // timed-out attempt unwinds promptly instead of hanging for 30s.
  const Stopwatch clock;
  EXPECT_EQ(fault::run_with_deadline([] { fault::cancellable_sleep(30.0); }, 0.05, &error,
                                     &permanent),
            fault::TaskStatus::kTimedOut);
  EXPECT_LT(clock.seconds(), 5.0);
  EXPECT_FALSE(permanent);
  EXPECT_EQ(fault::run_with_deadline([] {}, 1.0, &error, &permanent),
            fault::TaskStatus::kCompleted);
}

TEST(FaultWatchdog, RunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const double timeout : {0.0, 5.0}) {
    std::thread::id ran_on;
    EXPECT_EQ(fault::run_with_deadline([&] { ran_on = std::this_thread::get_id(); }, timeout),
              fault::TaskStatus::kCompleted);
    EXPECT_EQ(ran_on, caller) << "timeout " << timeout;
  }
}

TEST(FaultWatchdog, LateReturnWithoutPollingTimesOut) {
  // The task never polls: it returns normally, but after its deadline, so its
  // result is discarded as a timeout.
  std::string error;
  bool permanent = true;
  EXPECT_EQ(fault::run_with_deadline(
                [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); }, 0.005,
                &error, &permanent),
            fault::TaskStatus::kTimedOut);
  EXPECT_FALSE(permanent);
}

TEST(FaultWatchdog, AttemptTokenIsAChildOfTheCallersToken) {
  fault::CancelToken stop;
  const fault::CancelScope scope(&stop);
  stop.cancel();
  bool saw_cancel = false;
  EXPECT_EQ(fault::run_with_deadline([&] { saw_cancel = fault::cancellation_requested(); },
                                     0.0),
            fault::TaskStatus::kCompleted)
      << "a cancelled parent is not a timeout";
  EXPECT_TRUE(saw_cancel);
}

TEST(FaultFallback, AllFiniteAndBaselineForecast) {
  EXPECT_TRUE(fault::all_finite(std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_FALSE(
      fault::all_finite(std::vector<double>{1.0, std::numeric_limits<double>::quiet_NaN()}));
  EXPECT_FALSE(
      fault::all_finite(std::vector<double>{std::numeric_limits<double>::infinity()}));
  EXPECT_TRUE(fault::all_finite(std::span<const double>{}));

  const std::vector<double> history{10.0, 20.0, 30.0};
  const auto forecast = fault::baseline_forecast(history, 3, 0.5);
  ASSERT_EQ(forecast.size(), 3u);
  // EWMA from the front: 10 -> 15 -> 22.5, repeated across the horizon.
  for (const double v : forecast) EXPECT_DOUBLE_EQ(v, 22.5);

  EXPECT_THROW((void)fault::baseline_forecast({}, 1), std::invalid_argument);
  EXPECT_THROW((void)fault::baseline_forecast(history, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fault::baseline_forecast(history, 1, 1.5), std::invalid_argument);
}

TEST(FaultSanitize, DropsNonFiniteAndNegativeInOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  csv::SanitizeStats stats;
  const auto clean = csv::sanitize_loads({1.0, nan, 2.0, inf, -inf, -3.0, 0.0}, &stats);
  EXPECT_EQ(clean, (std::vector<double>{1.0, 2.0, 0.0}));
  EXPECT_EQ(stats.rejected_nan, 1u);
  EXPECT_EQ(stats.rejected_inf, 2u);
  EXPECT_EQ(stats.rejected_negative, 1u);
  EXPECT_EQ(stats.total(), 4u);
}

TEST(FaultServing, ObserveRejectsBadSamplesAndCountsThem) {
  const InjectorGuard guard;
  serving::PredictionService service(quick_service());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  service.observe_many("web", std::vector<double>{100.0, nan, 101.0, inf, -5.0, 102.0});

  const serving::WorkloadStats stats = service.stats("web");
  EXPECT_EQ(stats.observations, 3u) << "rejected samples must not count as observed";
  EXPECT_EQ(stats.history_size, 3u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST(FaultServing, FallbackChainOrderBaselineThenSnapshot) {
  const InjectorGuard guard;
  const auto series = seasonal(240);
  serving::PredictionService service(quick_service());
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  // Sanity: healthy path answers live.
  const auto live = service.predict_detailed("web", 4);
  EXPECT_EQ(live.level, fault::DegradationLevel::kLive);
  EXPECT_EQ(live.version, 1u);
  EXPECT_TRUE(fault::all_finite(live.forecast));

  // Corrupt every live forecast. With only one version ever published there
  // is no last-good snapshot, so the chain bottoms out at the EWMA baseline.
  fault::Injector::instance().configure("predict.nan:p=1", 11);
  const auto degraded = service.predict_detailed("web", 4);
  EXPECT_EQ(degraded.level, fault::DegradationLevel::kBaseline);
  EXPECT_EQ(degraded.version, 0u);
  ASSERT_EQ(degraded.forecast.size(), 4u);
  EXPECT_TRUE(fault::all_finite(degraded.forecast));

  // Publish v2: v1 becomes the last-known-good snapshot, the preferred
  // fallback over the baseline.
  fault::Injector::instance().reset();
  service.publish("web", *quick_model(series, 8));
  fault::Injector::instance().configure("predict.nan:p=1", 11);
  const auto snapshot = service.predict_detailed("web", 4);
  EXPECT_EQ(snapshot.level, fault::DegradationLevel::kSnapshot);
  EXPECT_EQ(snapshot.version, 1u) << "fallback must answer from the previous version";
  EXPECT_TRUE(fault::all_finite(snapshot.forecast));

  fault::Injector::instance().reset();
  const serving::WorkloadStats stats = service.stats("web");
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_EQ(stats.last_level, fault::DegradationLevel::kSnapshot);
  EXPECT_EQ(service.predict_detailed("web", 2).level, fault::DegradationLevel::kLive);
}

TEST(FaultServing, RetrainRetriesWithBackoffThenGivesUp) {
  const InjectorGuard guard;
  const auto series = seasonal(240);
  serving::ServiceConfig cfg = quick_service();
  cfg.retrain_retry.max_attempts = 2;
  cfg.retrain_retry.initial_backoff_seconds = 0.001;
  cfg.retrain_retry.max_backoff_seconds = 0.002;
  serving::PredictionService service(cfg);
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  fault::Injector::instance().configure("retrain.fail:p=1", 3);
  ASSERT_TRUE(service.request_retrain("web"));
  service.wait_idle();
  fault::Injector::instance().reset();

  const serving::WorkloadStats stats = service.stats("web");
  EXPECT_EQ(stats.retrain_failures, 2u) << "both attempts must fail";
  EXPECT_EQ(stats.retrain_retries, 1u) << "one retry beyond the first attempt";
  EXPECT_EQ(stats.retrain_timeouts, 0u);
  EXPECT_EQ(stats.version, 1u) << "the incumbent model must keep serving";
  EXPECT_EQ(fault::Injector::instance().total_fires(), 0u);  // reset cleared counts
  EXPECT_TRUE(fault::all_finite(service.predict("web", 4)));
}

TEST(FaultServing, WatchdogCancelsHungRetrain) {
  const InjectorGuard guard;
  const auto series = seasonal(240);
  serving::ServiceConfig cfg = quick_service();
  cfg.retrain_timeout_seconds = 0.2;
  cfg.retrain_retry.max_attempts = 1;
  serving::PredictionService service(cfg);
  service.publish("web", *quick_model(series));
  service.observe_many("web", series);

  // The injected hang sleeps cooperatively for far longer than the deadline;
  // the watchdog must cancel it and the incumbent must keep serving.
  fault::Injector::instance().configure("retrain.hang:p=1:mode=sleep:ms=30000", 3);
  const Stopwatch clock;
  ASSERT_TRUE(service.request_retrain("web"));
  service.wait_idle();
  fault::Injector::instance().reset();
  EXPECT_LT(clock.seconds(), 20.0) << "a hung attempt must not block the worker";

  const serving::WorkloadStats stats = service.stats("web");
  EXPECT_EQ(stats.retrain_timeouts, 1u);
  EXPECT_EQ(stats.retrain_failures, 1u);
  EXPECT_EQ(stats.version, 1u);
  EXPECT_TRUE(fault::all_finite(service.predict("web", 4)));
}

TEST(FaultServing, ShutdownCancelsInFlightRetrain) {
  const InjectorGuard guard;
  const auto series = seasonal(240);
  serving::ServiceConfig cfg = quick_service();  // no retrain deadline
  Stopwatch clock;
  {
    serving::PredictionService service(cfg);
    service.publish("web", *quick_model(series));
    service.observe_many("web", series);
    fault::Injector::instance().configure("retrain.hang:p=1:mode=sleep:ms=30000", 3);
    ASSERT_TRUE(service.request_retrain("web"));
    while (fault::Injector::instance().fire_count("retrain.hang") == 0) {
      ASSERT_LT(clock.seconds(), 20.0) << "the retrain never reached its hang";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    clock.reset();
  }
  EXPECT_LT(clock.seconds(), 5.0) << "shutdown must not wait out a hung retrain";
}

TEST(FaultServing, NonFiniteRetrainTimeoutRejected) {
  serving::ServiceConfig cfg = quick_service();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    cfg.retrain_timeout_seconds = bad;
    EXPECT_THROW(serving::PredictionService{cfg}, std::invalid_argument);
  }
}

}  // namespace

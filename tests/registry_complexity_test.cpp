// Publish-complexity regression guard (ISSUE 10 / ROADMAP item 1): under the
// pre-PR-10 copy-on-write std::map, every publish copied the whole shard, so
// per-publish cost grew linearly with occupancy (the last 5k of a 10k-tenant
// registration sweep took ~12s). The persistent trie copies only the
// root-to-leaf spine, so the p99 of the *last* thousand publishes into a 10k
// shard must stay within a constant factor of the *first* thousand.
//
// Timing is measured directly with Stopwatch into raw vectors (exact
// percentile by sort) rather than through ld_registry_publish_latency — the
// metrics registry has no histogram subtraction, so it cannot be windowed
// per-thousand; it is only sanity-checked for total count here. Marked
// `slow`: ~10k publishes of one shared PublishedModel, no training in the
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "core/model.hpp"
#include "obs/registry.hpp"
#include "serving/registry.hpp"
#include "test_util.hpp"

namespace {

using namespace ld;

/// Exact (not bucketed) p99 of one window of per-publish seconds.
double exact_p99(std::vector<double> window) {
  std::sort(window.begin(), window.end());
  return window[(window.size() * 99) / 100];
}

TEST(PublishComplexity, LastThousandPublishesNoWorseThanFirst) {
  constexpr std::size_t kTenants = 10000;
  constexpr std::size_t kWindow = 1000;

  const std::vector<double> series = testutil::seasonal_series(64);
  core::ModelTrainingConfig training;
  training.trainer.max_epochs = 4;
  const core::Hyperparameters hp{.history_length = 12, .cell_size = 8, .num_layers = 1,
                                 .batch_size = 32};
  const std::size_t n_train = series.size() * 3 / 4;
  const core::TrainedModel model(std::span<const double>(series).subspan(0, n_train),
                                 std::span<const double>(series).subspan(n_train), hp,
                                 training, 7);
  // One shared immutable version for every tenant: the loop then times pure
  // registry work (hash + spine copy + root swap), not model construction.
  const auto published = serving::PublishedModel::make(model, 1);

  serving::ModelRegistry registry(1);  // one shard: occupancy grows 0 -> 10k
  const metrics::LatencyHistogram before =
      obs::MetricsRegistry::global()
          .histogram("ld_registry_publish_latency", {{"shard", "0"}}, 1e-7, 1e2)
          .snapshot();

  std::vector<double> publish_seconds;
  publish_seconds.reserve(kTenants);
  char name[16];
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::snprintf(name, sizeof name, "t%05zu", i);
    Stopwatch clock;
    registry.publish(name, published);
    publish_seconds.push_back(clock.seconds());
  }

  ASSERT_EQ(registry.size(), kTenants);
  std::vector<double> first(publish_seconds.begin(), publish_seconds.begin() + kWindow);
  std::vector<double> last(publish_seconds.end() - kWindow, publish_seconds.end());
  const double p99_first = exact_p99(std::move(first));
  const double p99_last = exact_p99(std::move(last));

  // The gate from ISSUE 10: sub-linear publish cost. A copy-on-write map
  // fails this by ~two orders of magnitude (10k/100 element copies); the
  // trie's spine depth grows ~log32, so 8x absorbs timer noise with margin.
  // The 1us floor keeps an absurdly fast first window from turning jitter
  // into a failure.
  EXPECT_LE(p99_last, 8.0 * std::max(p99_first, 1e-6))
      << "first-1k p99 " << p99_first * 1e6 << "us vs last-1k p99 " << p99_last * 1e6
      << "us — publish cost is growing with shard occupancy";

  // The production histogram saw every publish (the bench gate and ops
  // endpoints consume this series; it must not silently detach).
  const metrics::LatencyHistogram after =
      obs::MetricsRegistry::global()
          .histogram("ld_registry_publish_latency", {{"shard", "0"}}, 1e-7, 1e2)
          .snapshot();
  EXPECT_EQ(after.count() - before.count(), kTenants);
}

}  // namespace

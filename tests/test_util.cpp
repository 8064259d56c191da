#include "test_util.hpp"

#include <cmath>
#include <numbers>

#include <unistd.h>

#include "common/rng.hpp"

namespace ld::testutil {

ScopedTempDir::ScopedTempDir(const std::string& tag) {
  // The pid keeps concurrent test processes (ctest -j runs each discovered
  // test as its own process) from sharing, and wiping, one directory.
  path_ = std::filesystem::temp_directory_path() /
          ("ld_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;  // best-effort: never throw out of a destructor
  std::filesystem::remove_all(path_, ec);
}

std::vector<double> seasonal_series(std::size_t n, double base, double amplitude,
                                    double period, std::uint64_t noise_seed) {
  std::vector<double> series(n);
  Rng rng(noise_seed == 0 ? 1 : noise_seed);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = base + amplitude * std::sin(2.0 * std::numbers::pi *
                                            static_cast<double>(i) / period);
    if (noise_seed != 0) series[i] += rng.uniform(-1.0, 1.0);
  }
  return series;
}

void reset_metrics() { obs::MetricsRegistry::global().reset_for_testing(); }

std::uint64_t counter_value(const std::string& name, const obs::Labels& labels) {
  return obs::MetricsRegistry::global().counter(name, labels).value();
}

}  // namespace ld::testutil

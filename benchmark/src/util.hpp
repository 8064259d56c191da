// Small helpers shared by the benchmark driver: clocks, order statistics,
// process memory, and the metric list every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ldb {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Percentile `p` in [0, 100] by linear interpolation between order
/// statistics (numpy's default). 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> sample, double p);
[[nodiscard]] double median(std::vector<double> sample);
[[nodiscard]] double mean(const std::vector<double>& sample);

/// Peak resident set (VmHWM) and current resident set (VmRSS) of this
/// process, from /proc/self/status.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double rss_kb();

/// One reported number: `name value unit`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal text that reads back as the same double.
[[nodiscard]] std::string number_text(double value);

}  // namespace ldb

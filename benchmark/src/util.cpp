#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace ldb {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double median(std::vector<double> sample) { return percentile(std::move(sample), 50.0); }

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) / static_cast<double>(sample.size());
}

namespace {
double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return std::strtod(line.c_str() + prefix.size(), nullptr);
  return 0.0;
}
}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") / 1024.0; }
double rss_kb() { return status_kb("VmRSS"); }

std::string number_text(double value) {
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace ldb

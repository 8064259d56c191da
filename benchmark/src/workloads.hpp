// The benchmark's four workloads. Each runs in its own process, checks the
// program's outputs, and reports either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace ldb {

inline const std::vector<std::string> kWorkloads = {"forecast_fleet", "ingest_mature",
                                                    "retrain_storm", "tune_offline"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;    ///< timed window of the serving phase
  bool traced = false;      ///< per-layer run
  std::string trace_path;   ///< Chrome trace output of the traced run ("" = none)
  std::string workdir = "ld_bench_work";  ///< WAL, checkpoints, scratch journals
  /// tune_offline: expected test MAPE of each of the 14 configurations for
  /// this seed, in configuration order (empty = not recorded).
  std::vector<double> tune_reference;
  bool smoke = false;       ///< ~1/20 scale
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  std::vector<Metric> metrics;
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] Outcome run_workload(const Options& options);

/// Metric names, in print order.
[[nodiscard]] std::vector<std::string> end_to_end_names();
[[nodiscard]] std::vector<std::string> per_layer_names();

}  // namespace ldb

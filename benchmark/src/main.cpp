// ld_bench: the repository benchmark driver.
//
//   ld_bench --workload W --seed S [--seconds 10] [--trace t.json]
//            [--workdir DIR] [--out r.json] [--tune-reference m1,...,m14]
//   ld_bench --smoke
//
// Runs one workload (forecast_fleet, ingest_mature, retrain_storm,
// tune_offline) in this process, checks the program's outputs, prints every
// metric as `name workload value unit`, and ends its output with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. Without --trace the
// metrics are the end-to-end ones; with --trace the run is traced, writes its
// spans to the given file, and reports the per-layer metrics instead. Exits
// 1 when an output check failed. --smoke runs every workload, untraced and
// traced, at ~1/20 scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using ldb::Metric;
using ldb::Outcome;

std::string result_json(const Outcome& out) {
  std::size_t failed = out.failed + out.errors.size();
  bool finite = true;
  std::ostringstream metrics;
  bool first = true;
  for (const Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
            << ldb::number_text(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
            << m.unit << "\"}";
    first = false;
  }
  if (!finite) ++failed;
  const std::size_t attempted = std::max<std::size_t>({1, out.attempted, failed});
  std::ostringstream json;
  json << "{\"correct\": " << (out.correct() && finite ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {"
       << metrics.str() << "}}";
  return json.str();
}

void report(const std::string& workload, const Outcome& out) {
  for (const std::string& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  for (const Metric& m : out.metrics)
    std::printf("%s %s %s %s\n", m.name.c_str(), workload.c_str(),
                ldb::number_text(m.value).c_str(), m.unit.c_str());
}

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> values;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) values.push_back(std::stod(item));
  return values;
}

/// Every workload at ~1/20 scale, untraced and traced, with all checks.
int smoke(const std::string& workdir) {
  int failures = 0;
  for (const std::string& workload : ldb::kWorkloads) {
    for (const bool traced : {false, true}) {
      ldb::Options o;
      o.workload = workload;
      o.seed = 7;
      o.seconds = 0.5;
      o.traced = traced;
      o.workdir = workdir;
      o.smoke = true;
      const Outcome out = ldb::run_workload(o);
      ldb::SpanLog::instance().clear();
      const std::vector<std::string> names =
          traced ? ldb::per_layer_names() : ldb::end_to_end_names();
      bool ok = out.correct() && out.metrics.size() == names.size();
      for (std::size_t i = 0; ok && i < names.size(); ++i)
        ok = out.metrics[i].name == names[i] && std::isfinite(out.metrics[i].value) &&
             (traced || out.metrics[i].value > 0.0);
      std::printf("smoke %-15s %-8s %s (%zu attempted, %zu failed)\n", workload.c_str(),
                  traced ? "traced" : "untraced", ok ? "ok" : "FAILED", out.attempted,
                  out.failed);
      if (!ok) {
        report(workload, out);
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ld::cli::Args args(argc, argv);
  ld::log::set_level(ld::log::Level::kWarn);
  try {
    const std::string workdir = args.get("workdir", "ld_bench_work");
    if (args.get_bool("smoke")) {
      const int rc = smoke(workdir);
      std::filesystem::remove_all(workdir);
      return rc;
    }
    ldb::Options o;
    o.workload = args.get("workload", "");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.seconds = args.get_double("seconds", 10.0);
    o.trace_path = args.get("trace", "");
    o.traced = !o.trace_path.empty();
    o.workdir = workdir;
    o.tune_reference = parse_list(args.get("tune-reference", ""));
    if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    const Outcome out = ldb::run_workload(o);
    report(o.workload, out);
    const std::string json = result_json(out);
    if (const std::string path = args.get("out", ""); !path.empty())
      std::ofstream(path) << json << "\n";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ld_bench: %s\n", e.what());
    return 2;
  }
}

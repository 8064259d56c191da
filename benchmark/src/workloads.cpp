#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "core/loaddynamics.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "serving/service.hpp"
#include "spans.hpp"
#include "workloads/generators.hpp"
#include "workloads/trace.hpp"

namespace ldb {

namespace {

namespace core = ld::core;
namespace fs = std::filesystem;
using ld::workloads::TraceKind;

/// The library's own default seed. Model initialisation, training and BO
/// use it as program configuration; --seed only generates the inputs
/// (traces, tenant histories, request streams).
constexpr std::uint64_t kProgramSeed = 2020;

/// Sizes of one run; scale_for() shrinks them ~20x for --smoke.
struct Scale {
  std::size_t setups = 3;          ///< set-ups per run; setup_s is their median
  std::size_t tune_setups = 9;     ///< tune_offline's set-up is milliseconds: more repeats
  double warmup_s = 2.0;
  double burst_warmup_s = 0.3;
  double burst_s = 3.0;            ///< closed-loop saturation window, in 5 slices
  std::size_t burst_window = 64;   ///< requests in flight per connection
  std::size_t layer_ops = 20000;   ///< layer-pass sample
  std::size_t model_epochs = 8;    ///< set-up model training (no early stop)

  std::size_t fleet_tenants = 10000;
  // Nominal rates keep the reactor about a quarter busy on a 4-core host;
  // nearer saturation, queueing doubles every wobble of the host's speed.
  double fleet_rate = 2000.0;
  std::size_t fleet_series_cap = 5000;

  std::size_t ingest_tenants = 1000;
  std::size_t ingest_history = 4096;  ///< the default per-tenant history cap
  double ingest_rate = 10000.0;

  std::size_t storm_tenants = 512;
  std::size_t storm_quiet = 48;
  std::size_t storm_history = 512;
  double storm_rate = 1500.0;
  std::size_t storm_checked = 2;   ///< quiet tenants whose retrain is redone directly

  // Two thirds of each fit is its seeded random design, the same for every
  // input, and no candidate stops early, so the work varies little with the
  // data seed; the last round is one q-EI batch.
  std::size_t tune_iterations = 12;
  std::size_t tune_initial = 8;
  std::size_t tune_batch = 4;      ///< q-EI candidates per round
  std::size_t tune_epochs = 8;
  std::size_t tune_min_updates = 60;
  std::size_t tune_windows = 250;
  std::size_t forecast_passes = 10; ///< walk-forward passes timed per model
  double deploy_rate = 1000.0;     ///< tuned models served in the traced run
};

Scale scale_for(const Options& o) {
  Scale s;
  if (!o.smoke) return s;
  s.setups = 1;
  s.tune_setups = 1;
  s.warmup_s = 0.2;
  s.burst_warmup_s = 0.05;
  s.burst_s = 1.0;
  s.layer_ops = 400;
  s.model_epochs = 2;
  s.fleet_tenants = 500;
  s.fleet_rate /= 20;
  s.fleet_series_cap = 250;
  s.ingest_tenants = 50;
  s.ingest_rate /= 20;
  s.storm_tenants = 26;
  s.storm_quiet = 3;
  s.storm_rate /= 20;
  s.storm_checked = 1;
  s.tune_iterations = 2;
  s.tune_initial = 2;
  s.tune_batch = 2;
  s.tune_epochs = 1;
  s.tune_min_updates = 0;
  s.tune_windows = 40;
  s.forecast_passes = 1;
  s.deploy_rate /= 20;
  return s;
}

// ---------------------------------------------------------------- metrics

/// What a user of the system sees (untraced run). Every workload reports
/// every metric; README.md gives each workload's definition.
struct EndToEnd {
  double setup_s = 0, predict_p50_us = 0, predict_p90_us = 0, throughput_per_s = 0,
         model_s_mean = 0, rss_mb = 0;
  [[nodiscard]] std::vector<Metric> metrics() const {
    return {{"setup_s", setup_s, "s"},
            {"predict_p50_us", predict_p50_us, "us"},
            {"predict_p90_us", predict_p90_us, "us"},
            {"throughput_per_s", throughput_per_s, "1/s"},
            {"model_s_mean", model_s_mean, "s"},
            {"rss_mb", rss_mb, "MiB"}};
  }
};

/// Per-layer numbers of the traced run. A layer a workload does not use
/// reports 0 (only counts and ratios can be idle; every time is measured).
struct LayerReport {
  double rtt_overhead_us_p50 = 0, decode_ns = 0, encode_ns = 0, wakeups_per_request = 0,
         predict_rtt_us_p99 = 0, observe_rtt_us_p50 = 0, observe_rtt_us_p99 = 0;
  double predict_us_p50 = 0, predict_us_p99 = 0, lookup_ns = 0, self_us = 0, observe_us = 0,
         history_values = 0, window_useful_frac = 0, degraded_frac = 0, rss_kb_per_tenant = 0,
         retrain_wait_frac = 0, queue_depth_max = 0;
  double infer_us = 0, warm_retrain_s = 0, forecast_mape_pct = 0;
  double train_s_per_candidate_p50 = 0, epochs_per_candidate = 0, gflop_per_candidate = 0;
  double bo_self_frac = 0, bo_objective_frac = 0, bo_evals = 0, bo_pool_idle_frac = 0;
  double wal_append_us = 0, wal_bytes_per_value = 0, wal_fsyncs = 0,
         wal_replay_us_per_record = 0;
  double scrape_ms = 0, series = 0;
  double pool_queue_depth_max = 0;
  double lag_us_p99 = 0, trace_overhead_pct = 0, spans = 0;

  [[nodiscard]] std::vector<Metric> metrics() const {
    return {{"net.rtt_overhead_us_p50", rtt_overhead_us_p50, "us"},
            {"net.decode_ns", decode_ns, "ns"},
            {"net.encode_ns", encode_ns, "ns"},
            {"net.wakeups_per_request", wakeups_per_request, "count"},
            {"net.predict_rtt_us_p99", predict_rtt_us_p99, "us"},
            {"net.observe_rtt_us_p50", observe_rtt_us_p50, "us"},
            {"net.observe_rtt_us_p99", observe_rtt_us_p99, "us"},
            {"serving.predict_us_p50", predict_us_p50, "us"},
            {"serving.predict_us_p99", predict_us_p99, "us"},
            {"serving.lookup_ns", lookup_ns, "ns"},
            {"serving.self_us", self_us, "us"},
            {"serving.observe_us", observe_us, "us"},
            {"serving.history_values", history_values, "count"},
            {"serving.window_useful_frac", window_useful_frac, "ratio"},
            {"serving.degraded_frac", degraded_frac, "ratio"},
            {"serving.rss_kb_per_tenant", rss_kb_per_tenant, "KiB"},
            {"serving.retrain_wait_frac", retrain_wait_frac, "ratio"},
            {"serving.queue_depth_max", queue_depth_max, "count"},
            {"core.infer_us", infer_us, "us"},
            {"core.warm_retrain_s", warm_retrain_s, "s"},
            {"core.forecast_mape_pct", forecast_mape_pct, "%"},
            {"nn.train_s_per_candidate_p50", train_s_per_candidate_p50, "s"},
            {"nn.epochs_per_candidate", epochs_per_candidate, "count"},
            {"nn.gflop_per_candidate", gflop_per_candidate, "GFLOP"},
            {"bayesopt.self_frac", bo_self_frac, "ratio"},
            {"bayesopt.objective_frac", bo_objective_frac, "ratio"},
            {"bayesopt.evals", bo_evals, "count"},
            {"bayesopt.pool_idle_frac", bo_pool_idle_frac, "ratio"},
            {"wal.append_us", wal_append_us, "us"},
            {"wal.bytes_per_value", wal_bytes_per_value, "B"},
            {"wal.fsyncs", wal_fsyncs, "count"},
            {"wal.replay_us_per_record", wal_replay_us_per_record, "us"},
            {"obs.scrape_ms", scrape_ms, "ms"},
            {"obs.series", series, "count"},
            {"common.pool_queue_depth_max", pool_queue_depth_max, "count"},
            {"loadgen.lag_us_p99", lag_us_p99, "us"},
            {"trace.overhead_pct", trace_overhead_pct, "%"},
            {"trace.spans", spans, "count"}};
  }
};

// ----------------------------------------------------------------- models

struct ModelSet {
  std::vector<std::vector<double>> series;  ///< one base series per model
  std::vector<std::shared_ptr<const core::TrainedModel>> models;
  std::vector<Candidate> trainings;
};

/// Eight (window, cell) shapes from HyperparameterSpace::reduced(), window
/// 8-48 and cell 8-32, one layer.
constexpr std::array<std::pair<std::size_t, std::size_t>, 8> kShapes = {
    {{8, 32}, {14, 16}, {20, 12}, {26, 8}, {32, 16}, {38, 12}, {44, 8}, {48, 24}}};
constexpr std::array<TraceKind, 4> kKinds = {TraceKind::kWikipedia, TraceKind::kGoogle,
                                             TraceKind::kAzure, TraceKind::kLcg};
constexpr std::size_t kTrainValues = 576;

/// Base series from `seed`, one model per series trained on the 60/20
/// train/validation split of its first kTrainValues values (the same work
/// for every workload, whatever the series' length). Trainings run one after
/// another, so each one's time is its own work rather than its share of the
/// cores.
ModelSet train_models(std::size_t count, std::size_t interval, double days, std::uint64_t seed,
                      const Scale& scale) {
  ModelSet set;
  for (std::size_t i = 0; i < count; ++i)
    set.series.push_back(
        ld::workloads::generate(kKinds[i % kKinds.size()], interval,
                                {.days = days, .seed = seed * 1000 + i})
            .jars);
  set.models.resize(count);
  set.trainings.resize(count);
  core::ModelTrainingConfig config;
  config.trainer.max_epochs = scale.model_epochs;
  config.trainer.patience = scale.model_epochs;  // a fixed amount of work
  config.trainer.learning_rate = 1e-2;
  config.max_train_windows = 400;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<double>& series = set.series[i];
    const ld::workloads::TraceSplit split = ld::workloads::split_trace(
        {"base", interval,
         {series.begin(), series.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(kTrainValues, series.size()))}});
    const core::Hyperparameters hp{.history_length = kShapes[i % kShapes.size()].first,
                                   .cell_size = kShapes[i % kShapes.size()].second,
                                   .num_layers = 1,
                                   .batch_size = 32};
    set.models[i] = train_timed(split.train, split.validation, hp, config, kProgramSeed + i,
                                set.trainings[i]);
  }
  return set;
}

/// Warm-retrain settings of the serving workloads: the reduced space, a few
/// short candidates on the recent history.
core::AdaptiveConfig retrain_config() {
  core::AdaptiveConfig a;
  a.base.space = core::HyperparameterSpace::reduced();
  a.base.seed = kProgramSeed;
  a.base.training.trainer.max_epochs = 6;
  a.base.training.trainer.learning_rate = 1e-2;
  a.refresh_candidates = 1;
  a.retrain_history_cap = 160;
  return a;
}

// ---------------------------------------------------------------- serving

ld::serving::ServiceConfig service_config() {
  ld::serving::ServiceConfig cfg;
  cfg.replicas = 1;
  cfg.background_retrain = false;  // models change only where a workload asks
  cfg.adaptive = retrain_config();
  return cfg;
}

/// In-process server: the service, a net::Server on an ephemeral port and
/// its reactor thread.
class Serving {
 public:
  explicit Serving(const ld::serving::ServiceConfig& config)
      : service(std::make_unique<ld::serving::PredictionService>(config)) {}
  ~Serving() {
    if (server) {
      server->stop();
      reactor.join();
    }
  }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  void listen() {
    ld::net::ServerConfig sc;
    // Admission control is not under test: a stall must show as latency,
    // not as shed requests.
    sc.shed_observe_depth = 1u << 20;
    sc.shed_predict_depth = 1u << 21;
    sc.max_connections = 64;
    server = std::make_unique<ld::net::Server>(*service, sc);
    reactor = std::thread([s = server.get()] {
      try {
        s->run();
      } catch (const std::exception& e) {
        // The generator then sees no replies and counts every request failed.
        std::fprintf(stderr, "ld_bench: server stopped: %s\n", e.what());
      }
    });
  }
  [[nodiscard]] std::uint16_t port() const { return server->port(); }

  std::unique_ptr<ld::serving::PredictionService> service;
  std::unique_ptr<ld::net::Server> server;
  std::thread reactor;
};

/// Register `tenants` tenants, each with a `history`-value slice of one base
/// series and that series' model. Returns resident KiB added per tenant.
double register_fleet(ld::serving::PredictionService& service, const ModelSet& set,
                      std::size_t tenants, std::size_t history, std::uint64_t seed,
                      Fleet& fleet) {
  fleet.models = set.models;
  ld::Rng rng(seed ^ 0xf1ee7ULL);
  const double rss_before = rss_kb();
  for (std::size_t t = 0; t < tenants; ++t) {
    char name[24];
    std::snprintf(name, sizeof name, "t%05zu", t);
    const auto m = static_cast<std::uint32_t>(t % set.models.size());
    const std::vector<double>& series = set.series[m];
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(series.size()) - 1));
    const std::vector<double> values = fleet.add(name, m, series, start, history);
    service.publish(name, *set.models[m]);
    service.observe_many(name, values);
  }
  return (rss_kb() - rss_before) / static_cast<double>(tenants);
}

std::vector<std::uint32_t> all_tenants(std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint32_t>(i);
  return v;
}

void account(Outcome& out, const PhaseResult& r, const char* phase) {
  out.attempted += r.attempted;
  out.failed += r.failed;
  std::fprintf(stderr, "%s: %zu requests, %zu served forecasts recomputed\n", phase,
               r.attempted, r.checked);
  if (r.failed > 0)
    std::fprintf(stderr, "%s: %zu failed requests, first: %s\n", phase, r.failed,
                 r.first_error.c_str());
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (r.max_connections > cores)
    out.errors.push_back(std::string(phase) + ": generator used " +
                         std::to_string(r.max_connections) + " connections on " +
                         std::to_string(cores) + " cores");
}

double statusz_wakeups(std::uint16_t port) {
  ld::net::Client client("127.0.0.1", port);
  const std::string body = client.http_get("/statusz");
  const std::string key = "\"epoll_wakeups\":";
  const std::size_t at = body.find(key);
  return at == std::string::npos ? 0.0 : std::strtod(body.c_str() + at + key.size(), nullptr);
}

double timed_scrape_ms(std::uint16_t port) {
  const std::int64_t start = now_ns();
  ld::net::Client client("127.0.0.1", port);
  const std::string body = client.http_get("/metrics");
  const double ms = static_cast<double>(now_ns() - start) / 1e6;
  if (body.rfind("HTTP/1.0 200", 0) != 0) throw std::runtime_error("GET /metrics failed");
  return ms;
}

double counter_value(const char* name) {
  return static_cast<double>(ld::obs::MetricsRegistry::global().counter(name).value());
}

void fill_training(LayerReport& rep, const std::vector<Candidate>& trainings) {
  std::vector<double> seconds, epochs, gflop;
  for (const Candidate& c : trainings) {
    seconds.push_back(c.seconds());
    epochs.push_back(static_cast<double>(c.epochs));
    gflop.push_back(c.gflop);
  }
  rep.train_s_per_candidate_p50 = median(seconds);
  rep.epochs_per_candidate = mean(epochs);
  rep.gflop_per_candidate = mean(gflop);
}

double warm_retrain_seconds(std::span<const double> history, const core::Hyperparameters& hp) {
  const std::int64_t start = now_ns();
  {
    const Span span("core.warm_retrain", "layer");
    (void)core::warm_retrain(history, hp, retrain_config(), 0);
  }
  return seconds_since(start);
}

/// The traced serving phase (run by `traced_phase`, which must set
/// PhaseSpec::trace) and the layer pass, shared by every workload: fills the
/// serving, net, wal, obs, common and loadgen rows of `rep`.
void traced_serving(Outcome& out, LayerReport& rep, Serving& srv, Fleet& fleet,
                    const Traffic& traffic, const std::function<PhaseResult()>& traced_phase,
                    std::uint64_t seed, std::size_t layer_ops, const std::string& scratch) {
  const double wakeups_before = statusz_wakeups(srv.port());
  const double fsyncs_before = counter_value("ld_wal_fsync_total");
  PhaseResult phase;
  {
    const QueuePoller poller(srv.service.get());
    phase = traced_phase();
    rep.pool_queue_depth_max = poller.pool_depth_max();
    rep.queue_depth_max = poller.shard_depth_max();
  }
  account(out, phase, "traced phase");
  rep.wal_fsyncs = counter_value("ld_wal_fsync_total") - fsyncs_before;
  rep.wakeups_per_request = (statusz_wakeups(srv.port()) - wakeups_before) /
                            static_cast<double>(std::max<std::size_t>(1, phase.attempted));
  std::vector<double> scrapes = phase.scrape_ms;
  for (int i = 0; i < 3; ++i) scrapes.push_back(timed_scrape_ms(srv.port()));
  rep.scrape_ms = median(scrapes);
  rep.series = ld::obs::MetricsRegistry::global().exposed_series_count();

  const ld::metrics::LatencyHistogram server = srv.service->fleet_predict_latency();
  rep.predict_us_p50 = server.percentile(50) * 1e6;
  rep.predict_us_p99 = server.percentile(99) * 1e6;
  rep.rtt_overhead_us_p50 = percentile(phase.predict_us, 50) - rep.predict_us_p50;
  rep.predict_rtt_us_p99 = percentile(phase.predict_us, 99);
  rep.observe_rtt_us_p50 = percentile(phase.observe_us, 50);
  rep.observe_rtt_us_p99 = percentile(phase.observe_us, 99);
  rep.lag_us_p99 = percentile(phase.lag_us, 99);
  rep.forecast_mape_pct = phase.forecast_mape();
  const double untraced = median(phase.predict_untraced_us);
  rep.trace_overhead_pct = (median(phase.predict_traced_us) - untraced) / untraced * 100.0;

  double degraded = 0, predictions = 0;
  for (const std::uint32_t t : traffic.tenants) {
    const ld::serving::WorkloadStats st = srv.service->stats(fleet.names[t]);
    degraded += static_cast<double>(st.degraded);
    predictions += static_cast<double>(st.predictions);
  }
  rep.degraded_frac = predictions > 0 ? degraded / predictions : 0.0;

  const LayerPass pass =
      run_layer_pass(*srv.service, fleet, traffic, layer_ops, seed, scratch + "/layer-wal");
  if (pass.mismatched > 0)
    out.errors.push_back("layer pass: " + std::to_string(pass.mismatched) +
                         " predict_detailed results differ from predict_horizon");
  out.attempted += pass.ops;
  rep.decode_ns = median(pass.decode_ns);
  rep.encode_ns = median(pass.encode_ns);
  rep.lookup_ns = median(pass.lookup_ns);
  rep.self_us = median(pass.self_us);
  rep.observe_us = median(pass.observe_us);
  rep.infer_us = median(pass.infer_us);
  rep.history_values = pass.history_values;
  rep.window_useful_frac = pass.window_useful_frac;
  rep.wal_append_us = median(pass.wal_append_us);
  rep.wal_bytes_per_value = pass.wal_bytes_per_value;
  rep.wal_replay_us_per_record = pass.wal_replay_us_per_record;
}

std::function<PhaseResult()> traced_run(LoadGen& gen, PhaseSpec spec) {
  spec.trace = true;
  return [&gen, spec] { return gen.run(spec); };
}

/// Untraced serving measurement shared by the serving workloads: the
/// nominal-rate phase (after its warm-up) and the saturation burst.
struct Served {
  PhaseResult nominal;
  PhaseResult burst;
};

Served measure_serving(Outcome& out, LoadGen& gen, const PhaseSpec& nominal, const Scale& s) {
  Served r;
  r.nominal = gen.run(nominal);
  account(out, r.nominal, "nominal phase");
  r.burst = gen.run({.rate = 0.0, .window = s.burst_window, .warmup_s = s.burst_warmup_s,
                     .seconds = s.burst_s, .slices = 5});
  account(out, r.burst, "saturation burst");
  return r;
}

/// Sample counts and the percentile ladder of one latency sample, on stderr.
void describe(const char* what, const std::vector<double>& us) {
  std::fprintf(stderr, "%s: n=%zu p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f us\n", what,
               us.size(), percentile(us, 50), percentile(us, 90), percentile(us, 95),
               percentile(us, 99), percentile(us, 99.9));
}

void fill_served(EndToEnd& e, const Served& r, const Scale& s) {
  describe("PREDICT", r.nominal.predict_us);
  describe("OBSERVE", r.nominal.observe_us);
  describe("generator lag", r.nominal.lag_us);
  e.predict_p50_us = r.nominal.sliced_predict_percentile(50);
  e.predict_p90_us = r.nominal.sliced_predict_percentile(90);
  e.throughput_per_s = r.burst.sliced_throughput(s.burst_s);
}

double mean_seconds(const std::vector<Candidate>& trainings) {
  std::vector<double> v;
  for (const Candidate& c : trainings) v.push_back(c.seconds());
  return mean(v);
}

std::string scratch_dir(const Options& o, const char* what) {
  const fs::path dir = fs::path(o.workdir) / (std::string(what) + "-" + std::to_string(o.seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------- forecast_fleet

Outcome forecast_fleet(const Options& o) {
  const Scale s = scale_for(o);
  Outcome out;
  const std::string scratch = scratch_dir(o, "forecast_fleet");
  ld::obs::MetricsRegistry::global().set_max_series(s.fleet_series_cap);
  std::vector<double> setups, training_s;
  std::vector<Candidate> trainings;
  std::unique_ptr<Serving> srv;
  Fleet fleet;
  ModelSet models;
  double rss_per_tenant = 0.0;
  for (std::size_t rep = 0; rep < (o.traced ? 1 : s.setups); ++rep) {
    srv.reset();  // the previous replica goes away before the next starts
    fleet = Fleet{};
    const std::int64_t start = now_ns();
    models = train_models(kShapes.size(), 30, 12.0, o.seed, s);
    srv = std::make_unique<Serving>(service_config());
    rss_per_tenant = register_fleet(*srv->service, models, s.fleet_tenants, Fleet::kTail,
                                    o.seed, fleet);
    srv->listen();
    setups.push_back(seconds_since(start));
    trainings.insert(trainings.end(), models.trainings.begin(), models.trainings.end());
    training_s.push_back(mean_seconds(models.trainings));
  }
  const Traffic traffic{.predict_share = 7.0 / 8.0, .horizon = 4, .observe_batch = 1,
                        .tenants = all_tenants(fleet.size())};
  LoadGen gen(srv->port(), fleet, traffic, o.seed);
  const PhaseSpec nominal{.rate = s.fleet_rate, .warmup_s = s.warmup_s, .seconds = o.seconds,
                          .scrape = true};
  if (o.traced) {
    LayerReport rep;
    traced_serving(out, rep, *srv, fleet, traffic, traced_run(gen, nominal), o.seed, s.layer_ops,
                   scratch);
    rep.rss_kb_per_tenant = rss_per_tenant;
    fill_training(rep, trainings);
    rep.warm_retrain_s = warm_retrain_seconds(
        std::span(models.series[0]).first(std::min<std::size_t>(512, models.series[0].size())),
        models.models[0]->hyperparameters());
    rep.spans = static_cast<double>(SpanLog::instance().size());
    out.metrics = rep.metrics();
    return out;
  }
  const Served served = measure_serving(out, gen, nominal, s);
  EndToEnd e;
  e.setup_s = median(setups);
  fill_served(e, served, s);
  e.model_s_mean = median(training_s);
  e.rss_mb = peak_rss_mb();
  out.metrics = e.metrics();
  return out;
}

// ----------------------------------------------------------- ingest_mature

Outcome ingest_mature(const Options& o) {
  const Scale s = scale_for(o);
  Outcome out;
  const std::string scratch = scratch_dir(o, "ingest_mature");
  ld::serving::ServiceConfig cfg = service_config();
  cfg.wal.dir = scratch + "/wal";
  cfg.wal.fsync = ld::wal::Fsync::kInterval;
  cfg.checkpoint_dir = scratch + "/checkpoints";

  // Untimed pre-phase: the replica's previous life. Register the fleet,
  // ingest half of every history, snapshot, ingest the rest, shut down.
  // The models are trained in as many rounds as the other workloads have
  // set-ups, so model_s_mean is a median of rounds here too.
  ModelSet models;
  std::vector<double> training_s;
  for (std::size_t round = 0; round < (o.traced ? 1 : s.setups); ++round) {
    models = train_models(kShapes.size(), 5, 24.0, o.seed, s);
    training_s.push_back(mean_seconds(models.trainings));
  }
  Fleet fleet;
  double rss_per_tenant = 0.0;
  {
    ld::serving::PredictionService previous(cfg);
    fleet.models = models.models;
    ld::Rng rng(o.seed ^ 0x1d9e57ULL);
    std::vector<std::vector<double>> histories;
    const double rss_before = rss_kb();
    for (std::size_t t = 0; t < s.ingest_tenants; ++t) {
      char name[24];
      std::snprintf(name, sizeof name, "t%05zu", t);
      const auto m = static_cast<std::uint32_t>(t % models.models.size());
      const auto start = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<long long>(models.series[m].size()) - 1));
      histories.push_back(fleet.add(name, m, models.series[m], start, s.ingest_history));
      previous.publish(name, *models.models[m]);
    }
    const auto ingest = [&](std::size_t from, std::size_t to) {
      constexpr std::size_t kBatch = 512;
      for (std::size_t t = 0; t < fleet.size(); ++t)
        for (std::size_t i = from; i < to; i += kBatch)
          previous.observe_many(fleet.names[t], std::span(histories[t]).subspan(
                                                    i, std::min(kBatch, to - i)));
    };
    ingest(0, s.ingest_history / 2);
    (void)previous.write_snapshot();
    ingest(s.ingest_history / 2, s.ingest_history);
    rss_per_tenant = (rss_kb() - rss_before) / static_cast<double>(fleet.size());
  }

  // Set-up is the restart: a new service, recover(), listen.
  std::vector<double> setups;
  std::unique_ptr<Serving> srv;
  for (std::size_t rep = 0; rep < (o.traced ? 1 : s.setups); ++rep) {
    srv.reset();
    const std::int64_t start = now_ns();
    srv = std::make_unique<Serving>(cfg);
    const ld::serving::RecoveryStats rec = srv->service->recover();
    srv->listen();
    setups.push_back(seconds_since(start));
    if (!rec.snapshot_loaded || rec.tenants != fleet.size() || rec.models != fleet.size())
      out.errors.push_back("recovery restored " + std::to_string(rec.models) + " of " +
                           std::to_string(fleet.size()) + " tenants");
  }
  for (std::size_t t = 0; t < fleet.size(); t += std::max<std::size_t>(1, fleet.size() / 16))
    if (srv->service->stats(fleet.names[t]).history_size != s.ingest_history)
      out.errors.push_back("recovered history of " + fleet.names[t] + " has the wrong length");

  const Traffic traffic{.predict_share = 0.5, .horizon = 1, .observe_batch = 4,
                        .tenants = all_tenants(fleet.size())};
  LoadGen gen(srv->port(), fleet, traffic, o.seed);
  const PhaseSpec nominal{.rate = s.ingest_rate, .warmup_s = s.warmup_s, .seconds = o.seconds};
  if (o.traced) {
    LayerReport rep;
    traced_serving(out, rep, *srv, fleet, traffic, traced_run(gen, nominal), o.seed, s.layer_ops,
                   scratch);
    rep.rss_kb_per_tenant = rss_per_tenant;
    fill_training(rep, models.trainings);
    rep.warm_retrain_s = warm_retrain_seconds(
        std::span(models.series[0]).first(std::min<std::size_t>(512, models.series[0].size())),
        models.models[0]->hyperparameters());
    rep.spans = static_cast<double>(SpanLog::instance().size());
    out.metrics = rep.metrics();
    return out;
  }
  const Served served = measure_serving(out, gen, nominal, s);
  EndToEnd e;
  e.setup_s = median(setups);
  fill_served(e, served, s);
  e.model_s_mean = median(training_s);
  e.rss_mb = peak_rss_mb();
  out.metrics = e.metrics();
  return out;
}

// ----------------------------------------------------------- retrain_storm

Outcome retrain_storm(const Options& o) {
  const Scale s = scale_for(o);
  Outcome out;
  const std::string scratch = scratch_dir(o, "retrain_storm");
  std::vector<double> setups;
  std::vector<Candidate> trainings;
  std::unique_ptr<Serving> srv;
  Fleet fleet;
  ModelSet models;
  double rss_per_tenant = 0.0;
  for (std::size_t rep = 0; rep < (o.traced ? 1 : s.setups); ++rep) {
    srv.reset();  // the previous replica goes away before the next starts
    fleet = Fleet{};
    const std::int64_t start = now_ns();
    models = train_models(kShapes.size(), 30, 24.0, o.seed, s);
    srv = std::make_unique<Serving>(service_config());
    rss_per_tenant = register_fleet(*srv->service, models, s.storm_tenants, s.storm_history,
                                    o.seed, fleet);
    srv->listen();
    setups.push_back(seconds_since(start));
    trainings.insert(trainings.end(), models.trainings.begin(), models.trainings.end());
  }

  // Quiet tenants receive no traffic, so their retrain input stays fixed;
  // they are asked to retrain at seeded times spread over the timed window.
  ld::Rng rng(o.seed ^ 0x5707ULL);
  const std::vector<std::size_t> order = rng.permutation(fleet.size());
  std::vector<std::uint32_t> quiet, busy;
  for (std::size_t i = 0; i < order.size(); ++i)
    (i < s.storm_quiet ? quiet : busy).push_back(static_cast<std::uint32_t>(order[i]));
  // Stratified: each quiet tenant asks at a seeded instant of its own equal
  // share of the window, so every run sees the same retrain load rather than
  // Poisson bunching.
  std::vector<double> at_s;
  for (std::size_t i = 0; i < quiet.size(); ++i)
    at_s.push_back((static_cast<double>(i) + rng.uniform()) * o.seconds /
                   static_cast<double>(quiet.size()));
  std::vector<std::vector<double>> frozen;  // the retrain input of each quiet tenant
  for (const std::uint32_t q : quiet) {
    // No observation ever reaches a quiet tenant: its history still ends
    // where its series cursor points.
    const std::vector<double>& series = *fleet.source[q];
    const std::size_t n = series.size();
    const std::size_t first = (fleet.cursor[q] + n - s.storm_history % n) % n;
    std::vector<double> h(s.storm_history);
    for (std::size_t i = 0; i < s.storm_history; ++i) h[i] = series[(first + i) % n];
    frozen.push_back(std::move(h));
  }

  const Traffic traffic{.predict_share = 7.0 / 8.0, .horizon = 4, .observe_batch = 1,
                        .tenants = busy};
  LoadGen gen(srv->port(), fleet, traffic, o.seed);
  const PhaseSpec nominal{.rate = s.storm_rate, .warmup_s = s.warmup_s, .seconds = o.seconds};
  ld::serving::PredictionService& service = *srv->service;

  // The storm runs on this thread while the generator thread drives traffic.
  std::vector<double> retrain_s;
  const auto storm = [&](const PhaseSpec& spec) {
    PhaseResult phase;
    std::exception_ptr failure;
    const std::int64_t start = now_ns();
    std::thread generator([&] {
      try {
        phase = gen.run(spec);
      } catch (...) {
        failure = std::current_exception();
      }
    });
    const std::int64_t timed = start + static_cast<std::int64_t>(s.warmup_s * 1e9);
    std::vector<std::int64_t> asked(quiet.size(), 0);
    std::vector<bool> seen(quiet.size(), false);
    std::size_t next = 0, visible = 0;
    const std::int64_t deadline = timed + static_cast<std::int64_t>((o.seconds + 60.0) * 1e9);
    while (visible < quiet.size() && now_ns() < deadline) {
      const std::int64_t now = now_ns();
      while (next < quiet.size() && now >= timed + static_cast<std::int64_t>(at_s[next] * 1e9)) {
        asked[next] = now_ns();
        if (!service.request_retrain(fleet.names[quiet[next]]))
          out.errors.push_back("request_retrain refused for " + fleet.names[quiet[next]]);
        ++next;
      }
      for (std::size_t i = 0; i < next; ++i)
        if (!seen[i] && service.stats(fleet.names[quiet[i]]).version > 1) {
          seen[i] = true;
          ++visible;
          retrain_s.push_back(seconds_since(asked[i]));
        }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    generator.join();
    if (failure) std::rethrow_exception(failure);
    if (visible < quiet.size())
      out.errors.push_back(std::to_string(quiet.size() - visible) +
                           " retrains never became visible");
    service.wait_idle();
    return phase;
  };

  // Every quiet tenant is now on version 2; a seeded few are retrained
  // again directly from the same frozen input and must forecast the same.
  const auto check_retrains = [&] {
    for (std::size_t i = 0; i < quiet.size(); ++i) {
      const auto model = service.current_model(fleet.names[quiet[i]]);
      if (!model || model->version() != 2)
        out.errors.push_back("quiet tenant " + fleet.names[quiet[i]] + " not on version 2");
    }
    double first_s = 0.0;
    for (std::size_t i = 0; i < std::min(s.storm_checked, quiet.size()); ++i) {
      const std::uint32_t q = quiet[i];
      const std::int64_t start = now_ns();
      std::shared_ptr<core::TrainedModel> direct;
      {
        const Span span("core.warm_retrain", "layer");
        direct = core::warm_retrain(frozen[i], fleet.model(q).hyperparameters(),
                                    retrain_config(), 0);
      }
      if (i == 0) first_s = seconds_since(start);
      const std::vector<double> expect = direct->predict_horizon(fleet.tail[q], 4);
      const std::vector<double> got =
          service.current_model(fleet.names[q])->predict_horizon(fleet.tail[q], 4);
      ++out.attempted;
      if (expect.size() != got.size() ||
          std::memcmp(expect.data(), got.data(), expect.size() * sizeof(double)) != 0)
        out.errors.push_back("retrained model of " + fleet.names[q] +
                             " differs from core::warm_retrain on the same input");
    }
    return first_s;
  };
  out.attempted += quiet.size();

  if (o.traced) {
    LayerReport rep;
    PhaseSpec spec = nominal;
    spec.trace = true;
    traced_serving(out, rep, *srv, fleet, traffic, [&] { return storm(spec); }, o.seed,
                   s.layer_ops, scratch);
    rep.warm_retrain_s = check_retrains();
    const double retrain_p50 = median(retrain_s);
    rep.retrain_wait_frac = std::max(0.0, retrain_p50 - rep.warm_retrain_s) / retrain_p50;
    rep.rss_kb_per_tenant = rss_per_tenant;
    fill_training(rep, trainings);
    rep.spans = static_cast<double>(SpanLog::instance().size());
    out.metrics = rep.metrics();
    return out;
  }
  Served served;
  served.nominal = storm(nominal);
  account(out, served.nominal, "storm phase");
  (void)check_retrains();
  served.burst = gen.run({.rate = 0.0, .window = s.burst_window, .warmup_s = s.burst_warmup_s,
                          .seconds = s.burst_s, .slices = 5});
  account(out, served.burst, "saturation burst");
  EndToEnd e;
  e.setup_s = median(setups);
  fill_served(e, served, s);
  e.model_s_mean = mean(retrain_s);
  e.rss_mb = peak_rss_mb();
  out.metrics = e.metrics();
  return out;
}

// ------------------------------------------------------------ tune_offline

struct TuneInput {
  ld::workloads::WorkloadConfiguration config;
  ld::workloads::TraceSplit split;
  std::vector<double> series;
};

/// fig9_accuracy --quick, shrunk so the 14 fits take about 15 s on a 4-core
/// host: the same reduced space and q-EI, with fewer iterations, epochs and
/// training windows.
core::LoadDynamicsConfig tune_config(TraceKind kind, const Scale& s) {
  core::LoadDynamicsConfig cfg;
  cfg.space = core::HyperparameterSpace::reduced();
  if (kind == TraceKind::kFacebook) {
    cfg.space.history_max = 24;
    cfg.space.batch_max = 64;
  }
  cfg.max_iterations = s.tune_iterations;
  cfg.initial_random = s.tune_initial;
  cfg.batch_size = s.tune_batch;
  cfg.training.trainer.max_epochs = s.tune_epochs;
  cfg.training.trainer.patience = s.tune_epochs;  // no early stop: fixed work per candidate
  cfg.training.trainer.learning_rate = 1e-2;
  cfg.training.trainer.min_updates = s.tune_min_updates;
  cfg.training.max_train_windows = s.tune_windows;
  cfg.seed = kProgramSeed;
  return cfg;
}

std::vector<TuneInput> tune_inputs(std::uint64_t seed) {
  std::vector<TuneInput> inputs;
  for (const auto& c : ld::workloads::paper_workload_configurations()) {
    // fig9_accuracy --quick trace lengths.
    const double days = c.interval_minutes == 5    ? 3.0
                        : c.interval_minutes == 10 ? 6.0
                        : c.interval_minutes == 30 ? 12.0
                                                   : 24.0;
    TuneInput in{c, ld::workloads::split_trace(ld::workloads::generate(
                        c.kind, c.interval_minutes, {.days = days, .seed = seed})),
                 {}};
    in.series = in.split.all();
    inputs.push_back(std::move(in));
  }
  return inputs;
}

Outcome tune_offline(const Options& o) {
  const Scale s = scale_for(o);
  Outcome out;
  const std::string scratch = scratch_dir(o, "tune_offline");
  std::vector<double> setups;
  std::vector<TuneInput> inputs;
  for (std::size_t rep = 0; rep < s.tune_setups; ++rep) {
    const std::int64_t start = now_ns();
    inputs = tune_inputs(o.seed);
    setups.push_back(seconds_since(start));
  }

  if (o.traced) {
    LayerReport rep;
    std::vector<std::shared_ptr<const core::TrainedModel>> tuned;
    std::vector<Candidate> candidates;
    double wall = 0, self = 0, objective = 0, busy_share_num = 0, busy_share_den = 0, evals = 0;
    {
      const QueuePoller poller(nullptr);
      for (const TuneInput& in : inputs) {
        const core::LoadDynamicsConfig cfg = tune_config(in.config.kind, s);
        const ComposedFit composed = composed_fit(in.split.train, in.split.validation, cfg);
        wall += composed.wall_s;
        self += composed.optimize_s - composed.objective_union_s;
        objective += composed.objective_union_s;
        busy_share_num += composed.objective_sum_s;
        busy_share_den += composed.objective_union_s *
                          static_cast<double>(ld::ThreadPool::global().concurrency());
        evals += static_cast<double>(composed.database.size());
        candidates.insert(candidates.end(), composed.candidates.begin(),
                          composed.candidates.end());
        const core::FitResult fit = core::LoadDynamics(cfg).fit(in.split.train, in.split.validation);
        ++out.attempted;
        if (!same_database(composed, fit))
          out.errors.push_back("composed fit of " + std::to_string(in.config.interval_minutes) +
                               "-minute " + ld::workloads::trace_kind_name(in.config.kind) +
                               " differs from LoadDynamics::fit");
        tuned.push_back(fit.model);
      }
      rep.pool_queue_depth_max = poller.pool_depth_max();
    }
    rep.bo_self_frac = self / wall;
    rep.bo_objective_frac = objective / wall;
    rep.bo_evals = evals;
    rep.bo_pool_idle_frac = 1.0 - busy_share_num / busy_share_den;
    fill_training(rep, candidates);

    // Serve the tuned models the way an operator would deploy them: each
    // configuration is a tenant, forecast one step and then told the actual.
    Serving srv(service_config());
    Fleet fleet;
    fleet.models = tuned;
    const double rss_before = rss_kb();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string name = "cfg" + std::to_string(i);
      const std::vector<double> history =
          fleet.add(name, static_cast<std::uint32_t>(i), inputs[i].series, 0,
                    inputs[i].split.test_start());
      srv.service->publish(name, *tuned[i]);
      srv.service->observe_many(name, history);
    }
    rep.rss_kb_per_tenant = (rss_kb() - rss_before) / static_cast<double>(inputs.size());
    srv.listen();
    const Traffic traffic{.predict_share = 0.5, .horizon = 1, .observe_batch = 1,
                          .tenants = all_tenants(fleet.size())};
    LoadGen gen(srv.port(), fleet, traffic, o.seed);
    const PhaseSpec deploy{.rate = s.deploy_rate, .warmup_s = s.burst_warmup_s,
                           .seconds = std::min(o.seconds, 4.0)};
    const double pool_max = rep.pool_queue_depth_max;
    traced_serving(out, rep, srv, fleet, traffic, traced_run(gen, deploy), o.seed, s.layer_ops,
                   scratch);
    rep.pool_queue_depth_max = std::max(pool_max, rep.pool_queue_depth_max);
    rep.warm_retrain_s = warm_retrain_seconds(inputs[0].split.train_and_validation(),
                                              tuned[0]->hyperparameters());
    rep.spans = static_cast<double>(SpanLog::instance().size());
    out.metrics = rep.metrics();
    return out;
  }

  // The composed fit is LoadDynamics::fit step for step (every traced run
  // compares all 14 databases; here one seeded configuration is compared),
  // and it exposes every candidate's training time and model.
  std::vector<double> fit_s, forecast_us, model_p50_us, model_p90_us, mapes;
  double evaluations = 0;
  const std::size_t compared = static_cast<std::size_t>(o.seed % inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TuneInput& in = inputs[i];
    const core::LoadDynamicsConfig config = tune_config(in.config.kind, s);
    const ComposedFit fit = composed_fit(in.split.train, in.split.validation, config);
    fit_s.push_back(fit.wall_s);
    evaluations += static_cast<double>(fit.database.size());
    if (i == compared) {
      ++out.attempted;
      if (!same_database(fit,
                         core::LoadDynamics(config).fit(in.split.train, in.split.validation)))
        out.errors.push_back("composed fit differs from LoadDynamics::fit");
    }

    // Walk-forward test of the seeded-design candidates: one-step forecasts
    // over the test split, each call timed, right after their fit so the
    // timing spreads over the whole run. Their shapes are the same for every
    // input, so the latency does not hinge on which shapes the search chose.
    // Percentiles are taken per model and averaged over the models: pooled,
    // they would sit in the gaps between the shapes' latency groups and jump.
    const std::span<const double> series(in.series);
    for (std::size_t c = 0; c < std::min(s.tune_initial, fit.models.size()); ++c) {
      if (!fit.models[c]) continue;
      std::vector<double> model_us;
      for (std::size_t t = in.split.test_start(); t < series.size(); ++t) {
        const std::int64_t start = now_ns();
        (void)fit.models[c]->predict_next(series.first(t));
        model_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
      }
      model_p50_us.push_back(percentile(model_us, 50));
      model_p90_us.push_back(percentile(model_us, 90));
      forecast_us.insert(forecast_us.end(), model_us.begin(), model_us.end());
    }
    // The selected model's test MAPE, scored step by step and batched.
    const core::TrainedModel& tuned = *fit.models[fit.best_index];
    std::vector<double> predictions;
    for (std::size_t t = in.split.test_start(); t < series.size(); ++t)
      predictions.push_back(tuned.predict_next(series.first(t)));
    out.attempted += 1 + predictions.size();
    const double mape = ld::metrics::mape(in.split.test, predictions);
    const double batched =
        ld::metrics::mape(in.split.test, tuned.predict_series(in.series, in.split.test_start()));
    const std::string label = std::string(ld::workloads::trace_kind_name(in.config.kind)) + "-" +
                              std::to_string(in.config.interval_minutes);
    if (!std::isfinite(mape) || std::abs(mape - batched) > 1e-6)
      out.errors.push_back(label + ": step-by-step MAPE " + number_text(mape) +
                           " disagrees with predict_series " + number_text(batched));
    if (!o.tune_reference.empty() && (o.tune_reference.size() != inputs.size() ||
                                      !(std::abs(mape - o.tune_reference[i]) <= 0.25)))
      out.errors.push_back(label + ": test MAPE " + number_text(mape) +
                           " is more than 0.25 pp from the recorded value");
    mapes.push_back(mape);
  }
  describe("seeded-design forecast", forecast_us);
  EndToEnd e;
  e.setup_s = median(setups);
  e.predict_p50_us = mean(model_p50_us);
  e.predict_p90_us = mean(model_p90_us);
  double total = 0;
  for (const double f : fit_s) total += f;
  e.throughput_per_s = evaluations / total;
  e.model_s_mean = mean(fit_s);
  e.rss_mb = peak_rss_mb();
  out.metrics = e.metrics();
  std::fprintf(stderr, "tune_offline MAPE per configuration:");
  for (const double m : mapes) std::fprintf(stderr, " %s", number_text(m).c_str());
  std::fprintf(stderr, "\n");
  return out;
}

}  // namespace

std::vector<std::string> end_to_end_names() {
  std::vector<std::string> names;
  for (const Metric& m : EndToEnd{}.metrics()) names.push_back(m.name);
  return names;
}

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names;
  for (const Metric& m : LayerReport{}.metrics()) names.push_back(m.name);
  return names;
}

Outcome run_workload(const Options& options) {
  SpanLog::instance().set_enabled(options.traced);
  Outcome out;
  if (options.workload == "forecast_fleet")
    out = forecast_fleet(options);
  else if (options.workload == "ingest_mature")
    out = ingest_mature(options);
  else if (options.workload == "retrain_storm")
    out = retrain_storm(options);
  else if (options.workload == "tune_offline")
    out = tune_offline(options);
  else
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  SpanLog::instance().set_enabled(false);
  if (options.traced && !options.trace_path.empty() &&
      !SpanLog::instance().write_chrome_json(options.trace_path))
    out.errors.push_back("cannot write trace " + options.trace_path);
  fs::remove_all(fs::path(options.workdir) / (options.workload + "-" + std::to_string(options.seed)));
  return out;
}

}  // namespace ldb

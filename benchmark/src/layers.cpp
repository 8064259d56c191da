#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>

#include "bayesopt/optimizer.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "obs/registry.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "wal/journal.hpp"
#include "wal/record.hpp"

namespace ldb {

namespace {
double ns_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a); }
}  // namespace

LayerPass run_layer_pass(ld::serving::PredictionService& service, Fleet& fleet,
                         const Traffic& traffic, std::size_t ops, std::uint64_t seed,
                         const std::string& wal_dir) {
  LayerPass pass;
  ld::Rng rng(seed ^ 0x1a7e5ULL);
  ld::wal::WalConfig wal_config;
  wal_config.dir = wal_dir;
  ld::wal::Journal journal(wal_dir, wal_config);
  std::vector<double> values;
  std::vector<std::uint64_t> steps(fleet.size(), 0);
  std::size_t wal_bytes = 0, wal_values = 0, predicts = 0;
  double history_sum = 0.0, useful_sum = 0.0;
  std::string frame, reply;

  for (std::size_t op = 0; op < ops; ++op) {
    const Span op_span("layerpass.op", "layer", op + 1);
    const std::uint32_t t = traffic.tenants[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(traffic.tenants.size()) - 1))];
    const std::string& name = fleet.names[t];
    frame.clear();
    reply.clear();
    if (rng.uniform() < traffic.predict_share) {
      ld::net::append_predict_request(frame, name, traffic.horizon);
      const std::int64_t t0 = now_ns();
      std::uint32_t horizon = 0;
      {
        const Span span("net.decode", "layer", op + 1);
        const ld::net::Decoded decoded = ld::net::decode_frame(frame);
        horizon = ld::net::parse_predict_request(decoded.payload).horizon;
      }
      const std::int64_t t1 = now_ns();
      std::size_t window = 0;
      {
        const Span span("serving.lookup", "layer", op + 1);
        window = service.current_model(name)->snapshot().effective_window;
      }
      const std::int64_t t2 = now_ns();
      ld::serving::PredictResult served;
      {
        const Span span("serving.predict_detailed", "layer", op + 1);
        served = service.predict_detailed(name, horizon);
      }
      const std::int64_t t3 = now_ns();
      std::vector<double> expect;
      {
        const Span span("core.predict_horizon", "layer", op + 1);
        expect = fleet.model(t).predict_horizon(fleet.tail[t], horizon);
      }
      const std::int64_t t4 = now_ns();
      {
        const Span span("net.encode", "layer", op + 1);
        ld::net::append_predict_ok(reply, static_cast<std::uint8_t>(served.level), served.forecast);
      }
      const std::int64_t t5 = now_ns();
      if (expect.size() != served.forecast.size() ||
          std::memcmp(expect.data(), served.forecast.data(), expect.size() * sizeof(double)) != 0)
        ++pass.mismatched;
      pass.decode_ns.push_back(ns_between(t0, t1));
      pass.lookup_ns.push_back(ns_between(t1, t2));
      pass.predict_us.push_back(ns_between(t2, t3) / 1e3);
      pass.infer_us.push_back(ns_between(t3, t4) / 1e3);
      pass.self_us.push_back((ns_between(t2, t3) - ns_between(t1, t2) - ns_between(t3, t4)) / 1e3);
      pass.encode_ns.push_back(ns_between(t4, t5));
      const auto history = static_cast<double>(service.stats(name).history_size);
      history_sum += history;
      useful_sum += static_cast<double>(window) / history;
      ++predicts;
    } else {
      fleet.next_values(t, traffic.observe_batch, values);
      ld::net::append_observe_request(frame, name, values);
      const std::int64_t t0 = now_ns();
      {
        const Span span("net.decode", "layer", op + 1);
        const ld::net::Decoded decoded = ld::net::decode_frame(frame);
        values = ld::net::parse_observe_request(decoded.payload).values;
      }
      const std::int64_t t1 = now_ns();
      {
        const Span span("serving.observe_many", "layer", op + 1);
        service.observe_many(name, values);
      }
      const std::int64_t t2 = now_ns();
      std::string record;
      {
        const Span span("wal.append", "layer", op + 1);
        ld::wal::append_observe(record, name, steps[t], values);
        journal.append(record);
      }
      const std::int64_t t3 = now_ns();
      {
        const Span span("net.encode", "layer", op + 1);
        ld::net::append_observe_ok(reply, static_cast<std::uint32_t>(values.size()));
      }
      const std::int64_t t4 = now_ns();
      steps[t] += values.size();
      wal_bytes += record.size();
      wal_values += values.size();
      pass.decode_ns.push_back(ns_between(t0, t1));
      pass.observe_us.push_back(ns_between(t1, t2) / 1e3);
      pass.wal_append_us.push_back(ns_between(t2, t3) / 1e3);
      pass.encode_ns.push_back(ns_between(t3, t4));
    }
  }
  pass.ops = ops;
  if (predicts > 0) {
    pass.history_values = history_sum / static_cast<double>(predicts);
    pass.window_useful_frac = useful_sum / static_cast<double>(predicts);
  }
  if (wal_values > 0) {
    pass.wal_bytes_per_value = static_cast<double>(wal_bytes) / static_cast<double>(wal_values);
    journal.sync();
    std::size_t records = 0;
    const std::int64_t t0 = now_ns();
    {
      const Span span("wal.replay", "layer");
      (void)journal.replay(0, [&records](const ld::wal::Record&) { ++records; });
    }
    pass.wal_replay_us_per_record = ns_between(t0, now_ns()) / 1e3 / static_cast<double>(records);
  }
  return pass;
}

double training_gflop(const ld::core::Hyperparameters& hp, std::size_t train_size,
                      std::size_t validation_size, std::size_t max_train_windows,
                      std::size_t epochs) {
  const double w = static_cast<double>(std::max<std::size_t>(
      1, std::min(hp.history_length, train_size - 4)));
  const double h = static_cast<double>(hp.cell_size);
  double per_step = 0.0;
  for (std::size_t layer = 0; layer < hp.num_layers; ++layer) {
    const double in = layer == 0 ? 1.0 : h;
    per_step += 8.0 * h * (in + h) + 10.0 * h;
  }
  const double forward = w * per_step + 2.0 * h;
  const double train_windows =
      std::min(static_cast<double>(train_size) - w, static_cast<double>(max_train_windows));
  const double val_windows = static_cast<double>(validation_size);
  const double flops = static_cast<double>(epochs) * (train_windows * 3.0 * forward +
                                                      val_windows * forward) +
                       val_windows * forward;
  return flops * 1e-9;
}

std::shared_ptr<ld::core::TrainedModel> train_timed(std::span<const double> train,
                                                    std::span<const double> validation,
                                                    const ld::core::Hyperparameters& hp,
                                                    const ld::core::ModelTrainingConfig& config,
                                                    std::uint64_t seed, Candidate& out) {
  out.start_ns = now_ns();
  std::shared_ptr<ld::core::TrainedModel> model;
  {
    const Span span("nn.train", "layer", seed);
    model = std::make_shared<ld::core::TrainedModel>(train, validation, hp, config, seed);
  }
  out.end_ns = now_ns();
  out.epochs = model->training_result().epochs_run;
  out.gflop = training_gflop(hp, train.size(), validation.size(), config.max_train_windows,
                             out.epochs);
  return model;
}

ComposedFit composed_fit(std::span<const double> train, std::span<const double> validation,
                         const ld::core::LoadDynamicsConfig& config) {
  ComposedFit out;
  const std::int64_t start = now_ns();
  const ld::core::HyperparameterSpace space = config.space.clamped_to_data(train.size());
  const ld::bayesopt::SearchSpace search = space.to_search_space();
  std::vector<ld::core::ModelRecord> records(config.max_iterations);
  out.candidates.resize(config.max_iterations);
  out.models.resize(config.max_iterations);
  std::atomic<std::size_t> evaluated{0};

  const ld::bayesopt::IndexedObjective objective = [&](const std::vector<double>& values,
                                                       std::size_t index) -> double {
    const ld::core::Hyperparameters hp = space.from_values(values);
    Candidate& c = out.candidates[index];
    double mape = std::numeric_limits<double>::quiet_NaN();
    try {
      const auto model =
          train_timed(train, validation, hp, config.training, config.seed + index, c);
      mape = model->validation_mape();
      out.models[index] = ld::core::TrainedModel::restore(model->snapshot());
    } catch (const std::exception&) {
      c.end_ns = now_ns();  // a failed training is penalized by the optimizer
    }
    records[index] = {hp, std::isfinite(mape) ? mape : 1e6};
    evaluated.fetch_add(1);
    return mape;
  };
  ld::bayesopt::OptimizerConfig oc;
  oc.max_iterations = config.max_iterations;
  oc.initial_random = config.initial_random;
  oc.batch_size = config.batch_size;
  ld::bayesopt::BayesianOptimizer optimizer(search, oc, config.seed);
  const std::int64_t opt_start = now_ns();
  {
    const Span span("bayesopt.optimize", "layer");
    (void)optimizer.optimize(objective);
  }
  out.optimize_s = seconds_since(opt_start);

  records.resize(evaluated.load());
  out.candidates.resize(records.size());
  out.models.resize(records.size());
  out.database = std::move(records);
  for (std::size_t i = 1; i < out.database.size(); ++i)
    if (out.database[i].validation_mape < out.database[out.best_index].validation_mape)
      out.best_index = i;
  out.wall_s = seconds_since(start);

  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const Candidate& c : out.candidates) {
    spans.emplace_back(c.start_ns, c.end_ns);
    out.objective_sum_s += c.seconds();
  }
  std::sort(spans.begin(), spans.end());
  std::int64_t covered = 0, open = std::numeric_limits<std::int64_t>::min(), close = open;
  for (const auto& [s, e] : spans) {
    if (s > close) {
      covered += close - open;
      open = s;
      close = e;
    } else {
      close = std::max(close, e);
    }
  }
  if (!spans.empty()) covered += close - open;
  out.objective_union_s = static_cast<double>(covered) * 1e-9;
  return out;
}

bool same_database(const ComposedFit& composed, const ld::core::FitResult& fit) {
  if (composed.database.size() != fit.database.size() || composed.best_index != fit.best_index)
    return false;
  for (std::size_t i = 0; i < fit.database.size(); ++i) {
    const ld::core::ModelRecord& a = composed.database[i];
    const ld::core::ModelRecord& b = fit.database[i];
    if (!(a.hyperparameters == b.hyperparameters) ||
        std::memcmp(&a.validation_mape, &b.validation_mape, sizeof(double)) != 0)
      return false;
  }
  return true;
}

QueuePoller::QueuePoller(const ld::serving::PredictionService* service)
    : service_(service), thread_([this] {
        try {
          const ld::obs::Gauge& pool =
              ld::obs::MetricsRegistry::global().gauge("ld_threadpool_queue_depth");
          while (!stop_.load()) {
            pool_max_.store(std::max(pool_max_.load(), pool.value()));
            if (service_ != nullptr) {
              double depth = 0.0;
              for (const std::size_t d : service_->shard_queue_depths())
                depth += static_cast<double>(d);
              shard_max_.store(std::max(shard_max_.load(), depth));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ld_bench: queue poller stopped: %s\n", e.what());
        }
      }) {}

QueuePoller::~QueuePoller() {
  stop_.store(true);
  thread_.join();
}

}  // namespace ldb

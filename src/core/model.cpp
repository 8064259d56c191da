#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/metrics.hpp"

namespace ld::core {

namespace {
nn::LstmNetworkConfig network_config(const Hyperparameters& hp, double dropout) {
  return {.input_size = 1,
          .hidden_size = hp.cell_size,
          .num_layers = hp.num_layers,
          .cell = hp.cell,
          .activation = hp.activation,
          .dropout = dropout};
}

/// The immutable, packed inference network for `weights`. Built fresh, so
/// none of the training-time forward caches come along, and without
/// dropout, a training-only concern.
std::shared_ptr<const nn::LstmNetwork> inference_network(const Hyperparameters& hp,
                                                         std::span<const double> weights) {
  auto network = std::make_shared<nn::LstmNetwork>(network_config(hp, 0.0), /*seed=*/0);
  network->load_weights(weights);  // throws on size mismatch; packs the panels
  return network;
}
}  // namespace

TrainedModel::TrainedModel(std::span<const double> train, std::span<const double> validation,
                           const Hyperparameters& hp, const ModelTrainingConfig& config,
                           std::uint64_t seed)
    : hp_(hp) {
  if (train.size() < 8) throw std::invalid_argument("TrainedModel: training set too small");
  for (const double v : train)
    if (!std::isfinite(v)) throw std::invalid_argument("TrainedModel: non-finite training JAR");

  // Clamp the window so at least a handful of training samples exist.
  effective_window_ = std::min(hp.history_length, train.size() - 4);
  if (effective_window_ == 0) effective_window_ = 1;

  scaler_.fit(train);
  std::vector<double> scaled_train = scaler_.transform(train);
  if (scaled_train.size() > config.max_train_windows + effective_window_) {
    // Keep the most recent windows only (bounds compute for long traces).
    scaled_train.erase(scaled_train.begin(),
                       scaled_train.end() - static_cast<std::ptrdiff_t>(
                                                config.max_train_windows + effective_window_));
  }
  const nn::SlidingWindowDataset train_ds(scaled_train, effective_window_);

  nn::LstmNetwork network(network_config(hp, hp.dropout), seed);

  nn::TrainerConfig tc = config.trainer;
  tc.batch_size = std::max<std::size_t>(1, std::min(hp.batch_size, train_ds.size()));
  if (hp.learning_rate > 0.0) tc.learning_rate = hp.learning_rate;
  tc.loss = hp.loss;

  if (!validation.empty()) {
    // Validation windows draw context from the tail of the training data so
    // every validation JAR has a full window (Fig. 7's partitioning).
    std::vector<double> context;
    const std::size_t ctx = std::min(effective_window_, train.size());
    context.insert(context.end(), train.end() - static_cast<std::ptrdiff_t>(ctx), train.end());
    context.insert(context.end(), validation.begin(), validation.end());
    const std::vector<double> scaled_ctx = scaler_.transform(context);
    const nn::SlidingWindowDataset val_ds(scaled_ctx, effective_window_);

    train_result_ = nn::train(network, train_ds, &val_ds, tc, seed ^ 0x5eedULL);

    // Cross-validation MAPE in the original JAR scale.
    const std::vector<double> scaled_preds = nn::predict_all(network, val_ds);
    std::vector<double> preds = scaler_.inverse(scaled_preds);
    for (double& p : preds) p = std::max(0.0, p);
    // val_ds targets correspond to validation[ctx - effective_window_ ...]:
    // with ctx == effective_window_, they are exactly `validation`.
    const std::size_t offset = context.size() - effective_window_ - validation.size();
    std::vector<double> actual(validation.begin() + static_cast<std::ptrdiff_t>(offset),
                               validation.end());
    validation_mape_ = metrics::mape(actual, preds);
  } else {
    train_result_ = nn::train(network, train_ds, nullptr, tc, seed ^ 0x5eedULL);
    // Report in-sample MAPE so callers always get a comparable number.
    const std::vector<double> scaled_preds = nn::predict_all(network, train_ds);
    std::vector<double> preds = scaler_.inverse(scaled_preds);
    for (double& p : preds) p = std::max(0.0, p);
    std::vector<double> actual(train_ds.size());
    for (std::size_t i = 0; i < train_ds.size(); ++i)
      actual[i] = scaler_.inverse(train_ds.target(i));
    validation_mape_ = metrics::mape(actual, preds);
  }
  network_ = inference_network(hp_, network.save_weights());
}

ModelSnapshot TrainedModel::snapshot() const {
  ModelSnapshot snap;
  snap.hyperparameters = hp_;
  snap.effective_window = effective_window_;
  snap.scaler_min = scaler_.min();
  snap.scaler_max = scaler_.max();
  snap.validation_mape = validation_mape_;
  snap.weights = network_->save_weights();
  return snap;
}

std::shared_ptr<TrainedModel> TrainedModel::restore(const ModelSnapshot& snap) {
  if (snap.effective_window == 0)
    throw std::invalid_argument("TrainedModel::restore: zero window");
  auto model = std::shared_ptr<TrainedModel>(new TrainedModel());
  model->hp_ = snap.hyperparameters;
  model->effective_window_ = snap.effective_window;
  model->scaler_ = nn::MinMaxScaler::from_bounds(snap.scaler_min, snap.scaler_max);
  model->validation_mape_ = snap.validation_mape;
  model->network_ = inference_network(snap.hyperparameters, snap.weights);
  return model;
}

void TrainedModel::roll_forecast(std::span<const double> history, std::span<double> out) const {
  if (out.empty()) return;
  if (history.empty()) throw std::invalid_argument("TrainedModel: empty history");
  const std::size_t w = effective_window_;
  // The fused single-window step is the inference path on every GEMM tier
  // (DESIGN.md §12) and rolls a thread-local buffer, so a warm thread
  // forecasts without allocating. Only a thread pinned to the reference
  // kernels takes the layered forward: that is the oracle LD_VERIFY_DIFF and
  // the differential tests compare the fused path against. It needs the
  // window as a one-row Matrix, and forward() fills backward caches, so it
  // runs on a call-local copy of the shared network.
  thread_local std::vector<double> fused_window;
  std::optional<tensor::Matrix> oracle_window;
  std::optional<nn::LstmNetwork> oracle;
  std::span<double> values;
  if (tensor::kernel_mode() == tensor::KernelMode::kReference) {
    values = oracle_window.emplace(1, w).flat();
    oracle.emplace(*network_);
  } else {
    fused_window.resize(w);
    values = fused_window;
  }
  // Left-pad with the earliest available value when history is short.
  for (std::size_t j = 0; j < w; ++j) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(history.size()) - static_cast<std::ptrdiff_t>(w) +
        static_cast<std::ptrdiff_t>(j);
    const double v = idx >= 0 ? history[static_cast<std::size_t>(idx)] : history.front();
    values[j] = scaler_.transform(v);
  }
  for (double& forecast : out) {
    const double y = oracle ? oracle->forward(*oracle_window)[0] : network_->forward_one(values);
    forecast = std::max(0.0, scaler_.inverse(y));
    // Recursive multi-step: the forecast becomes the newest window value.
    std::shift_left(values.begin(), values.end(), 1);
    values.back() = scaler_.transform(forecast);
  }
}

double TrainedModel::predict_next(std::span<const double> history) const {
  double next = 0.0;
  roll_forecast(history, {&next, 1});
  return next;
}

std::vector<double> TrainedModel::predict_horizon(std::span<const double> history,
                                                  std::size_t steps) const {
  std::vector<double> out(steps);
  roll_forecast(history, out);
  return out;
}

std::vector<double> TrainedModel::predict_series(std::span<const double> series,
                                                 std::size_t start) const {
  if (start == 0 || start >= series.size())
    throw std::invalid_argument("TrainedModel::predict_series: bad start");
  const std::size_t w = effective_window_;
  const std::size_t count = series.size() - start;

  // Batch all windows at once for throughput.
  tensor::Matrix x(count, w);
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t target = start + r;
    for (std::size_t j = 0; j < w; ++j) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(target) -
                                 static_cast<std::ptrdiff_t>(w) + static_cast<std::ptrdiff_t>(j);
      const double v = idx >= 0 ? series[static_cast<std::size_t>(idx)] : series.front();
      x(r, j) = scaler_.transform(v);
    }
  }
  // forward() fills backward caches: run it on a call-local copy.
  nn::LstmNetwork network = *network_;
  const std::vector<double> scaled = network.forward(x);
  std::vector<double> out(count);
  for (std::size_t r = 0; r < count; ++r) out[r] = std::max(0.0, scaler_.inverse(scaled[r]));
  return out;
}

}  // namespace ld::core

// Per-layer measurements of the traced run, taken from outside the program:
// the benchmark calls each layer's public functions itself and times them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/loaddynamics.hpp"
#include "loadgen.hpp"
#include "serving/service.hpp"

namespace ldb {

/// "Layer pass": a closed-loop replay, on one thread, of a seeded sample of a
/// workload's request stream, timing every public call separately.
struct LayerPass {
  std::vector<double> decode_ns;   ///< decode_frame + parse_*_request
  std::vector<double> encode_ns;   ///< append_predict_ok / append_observe_ok
  std::vector<double> lookup_ns;   ///< PredictionService::current_model
  std::vector<double> predict_us;  ///< PredictionService::predict_detailed
  std::vector<double> infer_us;    ///< TrainedModel::predict_horizon, same inputs
  std::vector<double> self_us;     ///< predict - lookup - infer, per request
  std::vector<double> observe_us;  ///< PredictionService::observe_many
  std::vector<double> wal_append_us;  ///< wal::append_observe + Journal::append
  double history_values = 0.0;     ///< mean stats().history_size per PREDICT
  double window_useful_frac = 0.0; ///< mean model window / history_size
  double wal_bytes_per_value = 0.0;
  double wal_replay_us_per_record = 0.0;
  std::size_t ops = 0;
  std::size_t mismatched = 0;      ///< predict_detailed != predict_horizon
};

/// `wal_dir` is a scratch journal private to the pass.
[[nodiscard]] LayerPass run_layer_pass(ld::serving::PredictionService& service, Fleet& fleet,
                                       const Traffic& traffic, std::size_t ops,
                                       std::uint64_t seed, const std::string& wal_dir);

/// One model training, timed by the benchmark.
struct Candidate {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t epochs = 0;
  double gflop = 0.0;  ///< computed from the shapes, not counted
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Floating-point work of one TrainedModel construction, computed from the
/// shapes: 2 FLOP per multiply-add, element-wise gate math at 10 FLOP per
/// unit, backward pass = 2x forward, plus the per-epoch and final passes
/// over the validation windows.
[[nodiscard]] double training_gflop(const ld::core::Hyperparameters& hp, std::size_t train_size,
                                    std::size_t validation_size, std::size_t max_train_windows,
                                    std::size_t epochs);

/// Train one model and describe the training.
[[nodiscard]] std::shared_ptr<ld::core::TrainedModel> train_timed(
    std::span<const double> train, std::span<const double> validation,
    const ld::core::Hyperparameters& hp, const ld::core::ModelTrainingConfig& config,
    std::uint64_t seed, Candidate& out);

/// LoadDynamics::fit rebuilt from its public pieces (clamped_to_data ->
/// to_search_space -> BayesianOptimizer::optimize(IndexedObjective)) with
/// every objective evaluation timed.
struct ComposedFit {
  std::vector<ld::core::ModelRecord> database;
  std::size_t best_index = 0;
  std::vector<Candidate> candidates;  ///< by evaluation index
  /// Every trained candidate restored from its snapshot (weights only, no
  /// training state), by evaluation index; null when training threw.
  std::vector<std::shared_ptr<const ld::core::TrainedModel>> models;
  double wall_s = 0.0;                ///< the whole composed fit
  double optimize_s = 0.0;            ///< BayesianOptimizer::optimize alone
  double objective_union_s = 0.0;     ///< time at least one objective was running
  double objective_sum_s = 0.0;       ///< summed objective durations
};
[[nodiscard]] ComposedFit composed_fit(std::span<const double> train,
                                       std::span<const double> validation,
                                       const ld::core::LoadDynamicsConfig& config);
/// Same records (hyperparameters and bit-identical MAPEs) and best index.
[[nodiscard]] bool same_database(const ComposedFit& composed, const ld::core::FitResult& fit);

/// Samples the pool's and the service's queue depths every millisecond
/// while alive (traced runs only).
class QueuePoller {
 public:
  explicit QueuePoller(const ld::serving::PredictionService* service);
  ~QueuePoller();
  QueuePoller(const QueuePoller&) = delete;
  QueuePoller& operator=(const QueuePoller&) = delete;

  [[nodiscard]] double pool_depth_max() const { return pool_max_.load(); }
  [[nodiscard]] double shard_depth_max() const { return shard_max_.load(); }

 private:
  const ld::serving::PredictionService* service_;
  std::atomic<bool> stop_{false};
  std::atomic<double> pool_max_{0.0};
  std::atomic<double> shard_max_{0.0};
  std::thread thread_;
};

}  // namespace ldb

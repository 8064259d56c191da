// TrainedModel: a fitted LSTM predictor "A = (M, T)" (Fig. 3) bundled with
// its scaler and hyperparameters — the artifact step 4 of the workflow
// selects and step 5 uses for prediction.
#pragma once

#include <cstdint>
#include <memory>

#include "core/hyperparameters.hpp"
#include "nn/network.hpp"
#include "nn/scaler.hpp"
#include "nn/trainer.hpp"
#include "timeseries/predictor.hpp"

namespace ld::core {

struct ModelTrainingConfig {
  nn::TrainerConfig trainer;             ///< epochs / patience / learning rate
  std::size_t max_train_windows = 4000;  ///< cap dataset size (most recent windows)
};

/// Everything needed to reconstruct a trained model without retraining.
struct ModelSnapshot {
  Hyperparameters hyperparameters;
  std::size_t effective_window = 0;
  double scaler_min = 0.0;
  double scaler_max = 1.0;
  double validation_mape = 0.0;
  std::vector<double> weights;
};

class TrainedModel final : public ts::Predictor {
 public:
  /// Train a model with the given hyperparameters on `train`, early-stopping
  /// against `validation` (validation also provides the workflow's
  /// cross-validation MAPE). `validation` may be empty -> trains the full
  /// epoch budget and reports training MSE-based MAPE instead.
  TrainedModel(std::span<const double> train, std::span<const double> validation,
               const Hyperparameters& hp, const ModelTrainingConfig& config,
               std::uint64_t seed);

  TrainedModel(const TrainedModel&) = default;
  TrainedModel& operator=(const TrainedModel&) = delete;

  [[nodiscard]] const Hyperparameters& hyperparameters() const noexcept { return hp_; }
  /// Cross-validation MAPE computed during construction (step 2 of Fig. 6).
  [[nodiscard]] double validation_mape() const noexcept { return validation_mape_; }
  [[nodiscard]] const nn::TrainResult& training_result() const noexcept { return train_result_; }

  // ts::Predictor interface. The model is fixed after construction (the
  // paper's offline protocol); fit() is a no-op. Every forecast is const and
  // thread-safe: any number of threads may call predict_* on one model and
  // on its copies, which share one immutable network.
  void fit(std::span<const double>) override {}
  [[nodiscard]] double predict_next(std::span<const double> history) const override;
  [[nodiscard]] std::string name() const override { return "loaddynamics_lstm"; }
  [[nodiscard]] std::unique_ptr<Predictor> clone() const override {
    return std::make_unique<TrainedModel>(*this);
  }

  /// Recursive multi-step forecast: each step feeds the previous prediction
  /// back as input. Bit-identical to calling predict_next on the history
  /// extended by each forecast in turn.
  [[nodiscard]] std::vector<double> predict_horizon(std::span<const double> history,
                                                    std::size_t steps) const;

  /// One-step-ahead predictions for each point of `series` starting at
  /// `start` (teacher-forced walk-forward, as in the paper's testing).
  [[nodiscard]] std::vector<double> predict_series(std::span<const double> series,
                                                   std::size_t start) const;

  /// Persistence (see core/serialization.hpp for the file format).
  [[nodiscard]] ModelSnapshot snapshot() const;
  [[nodiscard]] static std::shared_ptr<TrainedModel> restore(const ModelSnapshot& snapshot);

 private:
  TrainedModel() = default;  // used by restore()
  /// Fills `out` with the recursive forecast of the next out.size() values:
  /// one scaled window, rolled forward one forecast per step.
  void roll_forecast(std::span<const double> history, std::span<double> out) const;

  Hyperparameters hp_;
  nn::MinMaxScaler scaler_;
  std::shared_ptr<const nn::LstmNetwork> network_;  ///< packed; shared by copies
  nn::TrainResult train_result_;
  double validation_mape_ = 0.0;
  std::size_t effective_window_ = 0;  ///< history length after data clamping
};

}  // namespace ld::core

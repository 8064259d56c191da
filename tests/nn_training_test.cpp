// End-to-end learning behaviour of the NN stack: the LSTM must actually fit
// learnable signals, early stopping must restore the best weights, and
// inference must be deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "nn/dataset.hpp"
#include "nn/network.hpp"
#include "nn/scaler.hpp"
#include "nn/trainer.hpp"

namespace {

using ld::nn::LstmNetwork;
using ld::nn::MinMaxScaler;
using ld::nn::SlidingWindowDataset;
using ld::nn::TrainerConfig;

std::vector<double> sine_series(std::size_t n, double period) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = 0.5 + 0.4 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / period);
  return out;
}

TEST(Trainer, LearnsSineWave) {
  const std::vector<double> series = sine_series(400, 24.0);
  const SlidingWindowDataset train(std::span<const double>(series).subspan(0, 300), 24);
  const SlidingWindowDataset val(std::span<const double>(series).subspan(276), 24);

  LstmNetwork net({.input_size = 1, .hidden_size = 16, .num_layers = 1}, 3);
  TrainerConfig tc;
  tc.max_epochs = 40;
  tc.batch_size = 32;
  tc.learning_rate = 5e-3;
  const auto result = ld::nn::train(net, train, &val, tc, 11);

  EXPECT_LT(result.best_validation_loss, 1e-3)
      << "LSTM failed to learn a clean periodic signal";
  EXPECT_GT(result.epochs_run, 3u);
  // Loss must broadly decrease.
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());
}

TEST(Trainer, EarlyStoppingRestoresBestWeights) {
  const std::vector<double> series = sine_series(220, 16.0);
  const SlidingWindowDataset train(std::span<const double>(series).subspan(0, 160), 8);
  const SlidingWindowDataset val(std::span<const double>(series).subspan(152), 8);

  LstmNetwork net({.input_size = 1, .hidden_size = 8, .num_layers = 1}, 5);
  TrainerConfig tc;
  tc.max_epochs = 30;
  tc.patience = 3;
  const auto result = ld::nn::train(net, train, &val, tc, 21);

  // The weights in the network must reproduce the recorded best loss.
  const double loss_now = ld::nn::evaluate_mse(net, val);
  EXPECT_NEAR(loss_now, result.best_validation_loss, 1e-9);
}

TEST(Trainer, DeterministicGivenSeed) {
  const std::vector<double> series = sine_series(150, 12.0);
  const SlidingWindowDataset train(series, 6);

  auto run = [&] {
    LstmNetwork net({.input_size = 1, .hidden_size = 6, .num_layers = 1}, 17);
    TrainerConfig tc;
    tc.max_epochs = 5;
    (void)ld::nn::train(net, train, nullptr, tc, 33);
    return net.save_weights();
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, RejectsZeroBatch) {
  const std::vector<double> series = sine_series(50, 10.0);
  const SlidingWindowDataset train(series, 4);
  LstmNetwork net({.input_size = 1, .hidden_size = 4, .num_layers = 1}, 1);
  TrainerConfig tc;
  tc.batch_size = 0;
  EXPECT_THROW((void)ld::nn::train(net, train, nullptr, tc, 1), std::invalid_argument);
}

TEST(Network, SaveLoadRoundTrip) {
  LstmNetwork a({.input_size = 1, .hidden_size = 5, .num_layers = 2}, 9);
  LstmNetwork b({.input_size = 1, .hidden_size = 5, .num_layers = 2}, 10);
  const auto weights = a.save_weights();
  b.load_weights(weights);

  ld::tensor::Matrix x(2, 7);
  ld::Rng rng(4);
  for (double& v : x.flat()) v = rng.uniform();
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Network, ForwardOneRefusesStalePanelsUntilPack) {
  // forward_one reads panels packed from the weights; a change made through
  // parameters() must be packed before the next forecast, never silently
  // ignored.
  for (const ld::nn::CellType cell : {ld::nn::CellType::kLstm, ld::nn::CellType::kGru}) {
    LstmNetwork net({.input_size = 1, .hidden_size = 5, .num_layers = 2, .cell = cell}, 9);
    const std::vector<double> window{0.2, 0.5, 0.9, 0.4, 0.1, 0.7};
    const double before = net.forward_one(window);

    net.parameters()[0][0] += 0.25;
    EXPECT_THROW((void)net.forward_one(window), std::logic_error);

    net.pack();
    const double after = net.forward_one(window);
    EXPECT_NE(after, before);
    // The repacked panels match a network loaded with the same weights.
    LstmNetwork fresh({.input_size = 1, .hidden_size = 5, .num_layers = 2, .cell = cell}, 1);
    fresh.load_weights(net.save_weights());
    EXPECT_EQ(after, fresh.forward_one(window));
  }
}

TEST(Network, LoadRejectsWrongSize) {
  LstmNetwork net({.input_size = 1, .hidden_size = 3, .num_layers = 1}, 2);
  std::vector<double> bad(net.parameter_count() + 1, 0.0);
  EXPECT_THROW(net.load_weights(bad), std::invalid_argument);
}

TEST(Network, ParameterCountMatchesFormula) {
  const std::size_t h = 7, layers = 2;
  LstmNetwork net({.input_size = 1, .hidden_size = h, .num_layers = layers}, 2);
  // Layer 0: 4h*(1 + h) + 4h; layer 1: 4h*(h + h) + 4h; head: h + 1.
  const std::size_t expected =
      (4 * h * 1 + 4 * h * h + 4 * h) + (4 * h * h + 4 * h * h + 4 * h) + (h + 1);
  EXPECT_EQ(net.parameter_count(), expected);
}

}  // namespace

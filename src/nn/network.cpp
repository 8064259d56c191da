#include "nn/network.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "obs/trace.hpp"

namespace ld::nn {

namespace {
// -1 = consult LD_QUANT on first use (same tri-state pattern as the serving
// layer's LD_VERIFY_DIFF toggle).
std::atomic<int> g_quantized{-1};
}  // namespace

bool quantized_inference_enabled() {
  int v = g_quantized.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("LD_QUANT");
    v = (env != nullptr && env[0] == '1' && env[1] == '\0') ? 1 : 0;
    g_quantized.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_quantized_inference(bool enabled) {
  g_quantized.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::string cell_type_name(CellType cell) {
  return cell == CellType::kLstm ? "lstm" : "gru";
}

CellType cell_type_from_name(const std::string& name) {
  if (name == "lstm") return CellType::kLstm;
  if (name == "gru") return CellType::kGru;
  throw std::invalid_argument("unknown cell type '" + name + "'");
}

namespace {
LstmNetworkConfig validate(LstmNetworkConfig c) {
  if (c.input_size == 0 || c.hidden_size == 0 || c.num_layers == 0)
    throw std::invalid_argument("LstmNetwork: all dimensions must be > 0");
  if (c.dropout < 0.0 || c.dropout >= 1.0)
    throw std::invalid_argument("LstmNetwork: dropout must be in [0, 1)");
  return c;
}
}  // namespace

LstmNetwork::LstmNetwork(LstmNetworkConfig config, std::uint64_t seed)
    : config_(validate(config)),
      head_([&] {
        // Build layers before the head so RNG consumption order is stable.
        Rng rng(seed);
        layers_.reserve(config_.num_layers);
        for (std::size_t l = 0; l < config_.num_layers; ++l) {
          const std::size_t in = l == 0 ? config_.input_size : config_.hidden_size;
          if (config_.cell == CellType::kLstm) {
            layers_.emplace_back(std::in_place_type<LstmLayer>, in, config_.hidden_size, rng,
                                 config_.activation);
          } else {
            layers_.emplace_back(std::in_place_type<GruLayer>, in, config_.hidden_size, rng,
                                 config_.activation);
          }
        }
        dropout_rng_ = rng.split();
        return DenseLayer(config_.hidden_size, config_.output_size, rng);
      }()) {
  pack();
}

std::vector<double> LstmNetwork::forward(const tensor::Matrix& x) {
  if (config_.input_size != 1 || config_.output_size != 1)
    throw std::logic_error("LstmNetwork::forward: (B x T) form requires 1-in/1-out");
  const std::size_t batch = x.rows();
  const std::size_t steps = x.cols();
  if (batch == 0 || steps == 0) throw std::invalid_argument("LstmNetwork::forward: empty batch");

  // Unpack the (B x T) window matrix into T column matrices of shape (B x 1).
  std::vector<tensor::Matrix> seq(steps, tensor::Matrix(batch, 1));
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t r = 0; r < batch; ++r) seq[t](r, 0) = x(r, t);

  const tensor::Matrix y = forward_sequence(seq);
  std::vector<double> out(batch);
  for (std::size_t r = 0; r < batch; ++r) out[r] = y(r, 0);
  return out;
}

double LstmNetwork::forward_one(std::span<const double> window) const {
  LD_TRACE_SPAN("nn.forward_one");
  if (config_.input_size != 1 || config_.output_size != 1)
    throw std::logic_error("LstmNetwork::forward_one: requires 1-in/1-out");
  if (window.empty())
    throw std::invalid_argument("LstmNetwork::forward_one: empty window");
  if (quantized_inference_enabled())
    return forward_one_impl<float>(window);
  return forward_one_impl<double>(window);
}

template <typename T>
double LstmNetwork::forward_one_impl(std::span<const double> window) const {
  // The only writable state is this thread's: one network serves every
  // thread, each rolling its own hidden/cell state through the shared panels.
  thread_local std::vector<T> hbuf, cbuf, scratch;
  const std::size_t H = config_.hidden_size;
  const std::size_t num_layers = layers_.size();
  hbuf.assign(num_layers * H, T(0));
  cbuf.assign(num_layers * H, T(0));
  if (scratch.size() < 5 * H) scratch.resize(5 * H);  // LSTM's; GRU needs 4H
  // One timestep through the whole stack before advancing t: layer l at time
  // t consumes layer l-1's h_t, which was just written in place.
  for (const double xt : window) {
    T x0 = static_cast<T>(xt);
    const T* xin = &x0;
    for (std::size_t li = 0; li < num_layers; ++li) {
      T* h = hbuf.data() + li * H;
      T* c = cbuf.data() + li * H;
      std::visit(
          [&](const auto& layer) { layer.template step_fused<T>(xin, h, c, scratch.data()); },
          layers_[li]);
      xin = h;
    }
  }
  // Dense head as a dot product (fp64 even in quantized mode — one O(H)
  // reduction contributes nothing to latency but keeps the output scale
  // exact).
  const tensor::Matrix& hw = head_.weights();
  const T* hlast = hbuf.data() + (num_layers - 1) * H;
  double y = head_.bias()[0];
  for (std::size_t i = 0; i < H; ++i) y += static_cast<double>(hlast[i]) * hw(i, 0);
  return y;
}

tensor::Matrix LstmNetwork::forward_sequence(const std::vector<tensor::Matrix>& sequence) {
  LD_TRACE_SPAN("nn.forward");
  if (sequence.empty()) throw std::invalid_argument("LstmNetwork: empty sequence");
  const std::size_t batch = sequence.front().rows();
  const std::size_t steps = sequence.size();
  if (batch == 0) throw std::invalid_argument("LstmNetwork: empty batch");
  for (const tensor::Matrix& m : sequence)
    if (m.rows() != batch || m.cols() != config_.input_size)
      throw std::invalid_argument("LstmNetwork: inconsistent sequence shapes");
  last_batch_ = batch;
  last_steps_ = steps;

  std::vector<tensor::Matrix> seq = sequence;
  const bool use_dropout =
      training_ && config_.dropout > 0.0 && layers_.size() > 1;
  dropout_masks_.clear();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    seq = std::visit(
        [&](auto& layer) {
          using L = std::decay_t<decltype(layer)>;
          LD_TRACE_SPAN(std::is_same_v<L, LstmLayer> ? "nn.lstm.forward"
                                                     : "nn.gru.forward");
          return layer.forward(seq);
        },
        layers_[li]);
    if (use_dropout && li + 1 < layers_.size()) {
      // Variational inverted dropout: one (B x H) mask per layer boundary,
      // shared across all timesteps of the sequence.
      tensor::Matrix mask(batch, config_.hidden_size);
      const double keep = 1.0 - config_.dropout;
      for (double& v : mask.flat()) v = dropout_rng_.uniform() < keep ? 1.0 / keep : 0.0;
      for (tensor::Matrix& h : seq)
        for (std::size_t i = 0; i < h.size(); ++i) h.flat()[i] *= mask.flat()[i];
      dropout_masks_.push_back(std::move(mask));
    }
  }

  return head_.forward(seq.back());
}

void LstmNetwork::backward(std::span<const double> dy) {
  if (dy.size() != last_batch_) throw std::invalid_argument("LstmNetwork::backward: batch size");
  tensor::Matrix dyd(last_batch_, 1);
  for (std::size_t r = 0; r < last_batch_; ++r) dyd(r, 0) = dy[r];
  backward_matrix(dyd);
}

void LstmNetwork::backward_matrix(const tensor::Matrix& dy) {
  LD_TRACE_SPAN("nn.backward");
  if (dy.rows() != last_batch_ || dy.cols() != config_.output_size)
    throw std::invalid_argument("LstmNetwork::backward_matrix: shape mismatch");
  tensor::Matrix dlast = head_.backward(dy);

  // Only the final timestep's hidden state feeds the head; earlier steps get
  // zero gradient from above.
  std::vector<tensor::Matrix> dh(last_steps_,
                                 tensor::Matrix(last_batch_, config_.hidden_size));
  dh.back() = std::move(dlast);
  for (std::size_t li = layers_.size(); li > 0; --li) {
    // Dropout mask at the boundary above layer li-1 (if any) applies to the
    // gradient flowing into that layer's outputs.
    if (li <= dropout_masks_.size()) {
      const tensor::Matrix& mask = dropout_masks_[li - 1];
      for (tensor::Matrix& g : dh)
        for (std::size_t i = 0; i < g.size(); ++i) g.flat()[i] *= mask.flat()[i];
    }
    std::vector<tensor::Matrix> dx = std::visit(
        [&](auto& layer) {
          using L = std::decay_t<decltype(layer)>;
          LD_TRACE_SPAN(std::is_same_v<L, LstmLayer> ? "nn.lstm.backward"
                                                     : "nn.gru.backward");
          return layer.backward(dh);
        },
        layers_[li - 1]);
    if (li > 1) dh = std::move(dx);
  }
}

void LstmNetwork::zero_grad() noexcept {
  for (RecurrentLayer& layer : layers_)
    std::visit([](auto& l) { l.zero_grad(); }, layer);
  head_.zero_grad();
}

std::vector<std::span<double>> LstmNetwork::parameters() {
  std::vector<std::span<double>> out;
  for (RecurrentLayer& layer : layers_)
    for (auto s : std::visit([](auto& l) { return l.parameters(); }, layer))
      out.push_back(s);
  for (auto s : head_.parameters()) out.push_back(s);
  return out;
}

std::vector<std::span<const double>> LstmNetwork::parameters() const {
  std::vector<std::span<const double>> out;
  for (const RecurrentLayer& layer : layers_)
    for (auto s : std::visit([](const auto& l) { return l.parameters(); }, layer))
      out.push_back(s);
  out.push_back(head_.weights().flat());
  out.push_back(head_.bias());
  return out;
}

std::vector<std::span<double>> LstmNetwork::gradients() {
  std::vector<std::span<double>> out;
  for (RecurrentLayer& layer : layers_)
    for (auto s : std::visit([](auto& l) { return l.gradients(); }, layer))
      out.push_back(s);
  for (auto s : head_.gradients()) out.push_back(s);
  return out;
}

std::size_t LstmNetwork::parameter_count() const noexcept {
  std::size_t n = head_.parameter_count();
  for (const RecurrentLayer& layer : layers_)
    n += std::visit([](const auto& l) { return l.parameter_count(); }, layer);
  return n;
}

void LstmNetwork::pack() {
  for (RecurrentLayer& layer : layers_) std::visit([](auto& l) { l.pack(); }, layer);
}

std::vector<double> LstmNetwork::save_weights() const {
  std::vector<double> snapshot;
  snapshot.reserve(parameter_count());
  for (auto s : parameters()) snapshot.insert(snapshot.end(), s.begin(), s.end());
  return snapshot;
}

void LstmNetwork::load_weights(std::span<const double> weights) {
  if (weights.size() != parameter_count())
    throw std::invalid_argument("LstmNetwork::load_weights: size mismatch");
  std::size_t off = 0;
  for (auto s : parameters()) {
    for (double& v : s) v = weights[off++];
  }
  pack();
}

}  // namespace ld::nn

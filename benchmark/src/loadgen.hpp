// Open-loop load generator for the serving workloads.
//
// One generator thread drives an in-process net::Server over at most two
// non-blocking data connections, multiplexed with epoll. Requests are
// pipelined binary frames (net/frame.hpp). Each tenant is pinned to one
// connection, and the server answers a connection's requests in order, so
// the benchmark's mirror of every tenant's history is exactly the history
// the server forecasts from. A seeded sample of served forecasts is later
// recomputed with the tenant's own TrainedModel and must match bit for bit.
//
// Arrivals are Poisson at a fixed rate (open loop): a request is timed from
// the instant it was due, so a stall in the server, or a late generator,
// shows as latency of every request behind it. The generator's own lateness
// is reported separately (lag). A closed-loop variant keeps a fixed number
// of requests in flight per connection and measures saturated throughput.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/model.hpp"

namespace ldb {

/// The benchmark's view of the tenants it drives.
struct Fleet {
  /// Mirrored history tail per tenant. Every model window is shorter, and a
  /// forecast reads only the last `window` values of the history.
  static constexpr std::size_t kTail = 64;

  std::vector<std::string> names;
  std::vector<std::uint32_t> model_of;  ///< index into `models`
  std::vector<std::shared_ptr<const ld::core::TrainedModel>> models;
  std::vector<const std::vector<double>*> source;  ///< series observations come from
  std::vector<std::size_t> cursor;                 ///< next source index (wraps)
  std::vector<std::vector<double>> tail;           ///< mirror of the newest values

  /// Register tenant `name`, whose history is source[start, start + length)
  /// (wrapping). Returns that history; later observations continue it.
  std::vector<double> add(std::string name, std::uint32_t model,
                          const std::vector<double>& series, std::size_t start,
                          std::size_t length);

  /// The next `n` values of tenant `t`'s series, appended to its mirror.
  void next_values(std::size_t t, std::size_t n, std::vector<double>& out);

  [[nodiscard]] const ld::core::TrainedModel& model(std::size_t t) const {
    return *models[model_of[t]];
  }
  [[nodiscard]] std::size_t size() const noexcept { return names.size(); }
};

/// The request mix of a workload.
struct Traffic {
  double predict_share = 0.875;  ///< the rest are OBSERVE
  std::uint32_t horizon = 4;
  std::size_t observe_batch = 1;
  std::vector<std::uint32_t> tenants;  ///< tenants that receive traffic
};

struct PhaseSpec {
  double rate = 0.0;         ///< open-loop requests/s; 0 = closed-loop saturation
  std::size_t window = 64;   ///< closed loop: requests in flight per connection
  double warmup_s = 2.0;     ///< untimed lead-in
  double seconds = 10.0;     ///< timed window
  std::size_t slices = 5;    ///< equal parts of the timed window (robust statistics)
  bool scrape = false;       ///< GET /metrics on a third connection mid-slice, every slice
  bool trace = false;        ///< client spans in alternate 100 ms slices (overhead A/B)
};

struct PhaseResult {
  std::vector<double> predict_us;  ///< due time -> reply, timed window only
  std::vector<std::uint8_t> predict_slice;  ///< timed-window slice of each predict_us
  std::vector<double> observe_us;
  std::vector<double> lag_us;      ///< due time -> send
  std::vector<double> predict_traced_us, predict_untraced_us;  ///< spec.trace
  std::vector<double> scrape_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< error + shed + timeout + bad reply + mismatch
  std::vector<std::size_t> completed_by_slice;  ///< replies received in each slice
  std::size_t checked = 0;         ///< sampled forecasts recomputed (bit-exact or failed)
  std::vector<double> forecast, actual;  ///< one-step forecasts and the value that followed
  std::size_t max_connections = 0;
  std::string first_error;

  /// Median over the timed window's slices of each slice's `p`-th PREDICT
  /// latency percentile: one bad slice (a host stall) does not set the run's
  /// number, while anything that recurs in most slices does.
  [[nodiscard]] double sliced_predict_percentile(double p) const;
  /// Median over slices of replies per second (closed-loop throughput).
  [[nodiscard]] double sliced_throughput(double seconds) const;
  /// MAPE of the one-step forecasts against the values that followed them.
  [[nodiscard]] double forecast_mape() const;
};

class LoadGen {
 public:
  LoadGen(std::uint16_t port, Fleet& fleet, Traffic traffic, std::uint64_t seed);

  /// Run one phase on the calling thread. Connections are opened at the
  /// start and closed at the end; a request unanswered 1 s after the phase
  /// ends counts as failed.
  [[nodiscard]] PhaseResult run(const PhaseSpec& spec);

 private:
  std::uint16_t port_;
  Fleet& fleet_;
  Traffic traffic_;
  ld::Rng rng_;        ///< arrivals, tenants, verbs
  ld::Rng check_rng_;  ///< which forecasts are recomputed
  std::vector<std::int64_t> last_predict_;  ///< per tenant: pending one-step forecast slot
};

}  // namespace ldb

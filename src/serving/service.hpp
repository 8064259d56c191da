// PredictionService: a long-lived, multi-tenant serving front end for
// LoadDynamics models — the deployment mode of the paper's Section IV case
// study (predictor feeding a live auto-scaler), grown to fleet scale.
//
// Concurrency model (see DESIGN.md §8 and §13):
//  - The registry and the per-workload state maps are sharded by a stable
//    hash of the workload id (ServiceConfig::shards, default LD_SHARDS /
//    hardware concurrency). Traffic on different shards never touches a
//    common mutex or RCU map.
//  - predict() reads the workload's current model via the lock-free sharded
//    ModelRegistry and copies the (capped) history under a per-workload
//    mutex held for microseconds. It never blocks on retraining.
//  - observe() appends under the same brief mutex and feeds the workload's
//    DriftMonitor; a drift decision enqueues a background retrain into the
//    workload's *shard* queue, a priority queue ordered by drift severity ×
//    observed traffic (the worst, busiest tenants retrain first).
//  - A dispatcher thread submits one drain task per backlogged shard to the
//    shared ThreadPool; each drain pops jobs in priority order and runs
//    core::warm_retrain entirely lock-free, then atomically swaps the new
//    PublishedModel into the registry and persists it as a checkpoint.
//    Retrains on different shards run concurrently (bounded by the pool);
//    within a shard they stay serialized. In-flight predictions finish on
//    the old snapshot.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/adaptive.hpp"
#include "fault/fallback.hpp"
#include "fault/watchdog.hpp"
#include "obs/registry.hpp"
#include "serving/registry.hpp"
#include "wal/journal.hpp"
#include "wal/snapshot.hpp"

namespace ld::serving {

struct ServiceConfig {
  /// Registry/workload-map/retrain-queue shard count. 0 resolves
  /// default_shards() (LD_SHARDS, falling back to hardware concurrency).
  std::size_t shards = 0;
  /// Per-workload history cap (ring semantics: oldest samples are dropped).
  std::size_t max_history = 4096;
  /// Unused: every prediction runs on the one shared, immutable model, so
  /// there are no inference replicas to size. Kept only because
  /// benchmark/src/workloads.cpp still assigns it; delete both together.
  std::size_t replicas = 2;
  /// Directory for model checkpoints; written on every publish, read by
  /// add_workload() for warm starts. Empty = no persistence.
  std::string checkpoint_dir;
  /// Drift-monitor and warm-retrain knobs (core::AdaptiveConfig::base seeds
  /// and bounds the retrain candidate trainings).
  core::AdaptiveConfig adaptive;
  /// Automatically queue a background retrain when a workload drifts. Manual
  /// request_retrain() works regardless.
  bool background_retrain = true;
  /// Deadline for one background retrain attempt, which always runs on its
  /// shard's drain task. > 0 cancels an attempt that overruns it (the
  /// trainer polls once per epoch) and discards its result while the old
  /// model keeps serving; <= 0 (the default) sets no deadline. Must be
  /// finite.
  double retrain_timeout_seconds = 0.0;
  /// Retry/backoff schedule for failed or timed-out retrain attempts
  /// (jittered deterministically from adaptive.base.seed).
  fault::RetryPolicy retrain_retry;
  /// EWMA smoothing for the last-resort baseline forecast (fallback chain
  /// level 2; see DESIGN.md §10).
  double baseline_ewma_alpha = 0.3;
  /// Per-request latency target for the predict SLO: requests slower than
  /// this count against the "predict_p99" error budget (obs::SloTracker,
  /// ld_slo_burn_rate gauges) and, when tracing, emit a slow-request
  /// exemplar (instant event + structured log with workload/shard/level).
  /// <= 0 disables SLO tracking and the exemplar path.
  double slo_predict_p99_seconds = 0.05;
  /// Durability layer (DESIGN.md §15): when wal.dir is set, every ingested
  /// batch, tenant registration, and retrain promotion is journaled to a
  /// per-shard write-ahead log, compacted by write_snapshot() and replayed
  /// by recover() after a crash.
  wal::WalConfig wal;
};

/// What recover() rebuilt: snapshot + per-shard WAL-tail replay accounting.
/// Exposed over the protocol (STATS fleet summary) so the crash-recovery
/// tests can assert exact replayed/skipped/quarantined counts.
struct RecoveryStats {
  bool snapshot_loaded = false;        ///< a manifest (or its .prev) was usable
  std::size_t tenants = 0;             ///< tenants restored from the manifest
  std::size_t models = 0;              ///< tenants that came back with a live model
  std::size_t segments = 0;            ///< WAL segment files visited
  std::size_t replayed_records = 0;    ///< journal records applied
  std::size_t replayed_values = 0;     ///< observation values among them
  std::size_t skipped_records = 0;     ///< idempotent-replay duplicates skipped
  std::size_t torn_segments = 0;       ///< truncated crash tails (prefix kept)
  std::size_t quarantined_segments = 0;///< corrupt segments moved aside
  double seconds = 0.0;                ///< wall time of the whole recovery
};

struct WorkloadStats {
  std::uint64_t version = 0;  ///< published model version (0 = none yet)
  std::size_t observations = 0;
  std::size_t predictions = 0;
  std::size_t retrains = 0;
  std::size_t history_size = 0;
  double baseline_mape = 0.0;
  bool retrain_pending = false;
  std::size_t rejected = 0;           ///< non-finite/negative samples dropped
  std::size_t degraded = 0;           ///< predictions answered below kLive
  std::size_t retrain_failures = 0;   ///< failed/timed-out retrain attempts
  std::size_t retrain_retries = 0;    ///< attempts beyond the first
  std::size_t retrain_timeouts = 0;   ///< attempts cancelled by the watchdog
  fault::DegradationLevel last_level = fault::DegradationLevel::kLive;
};

/// predict_detailed(): the forecast plus how it was produced.
struct PredictResult {
  std::vector<double> forecast;
  fault::DegradationLevel level = fault::DegradationLevel::kLive;
  std::uint64_t version = 0;  ///< model version that answered (0 = baseline)
};

/// Differential kernel verification (DESIGN.md §11). When enabled — via
/// set_verify_diff(true), or LD_VERIFY_DIFF=1 in the environment when the
/// setter was never called — every live forecast is recomputed through the
/// layered forward on the serial reference kernels
/// (tensor::KernelMode::kReference) and compared ULP-wise against the fused
/// production path. A divergence beyond verify::kFusedPredictUlpBound
/// bumps ld_verify_diff_mismatch_total{workload=} and logs a warning; the
/// production forecast is served either way.
/// Roughly doubles predict cost — a canary/debug mode, not a default.
void set_verify_diff(bool enabled) noexcept;
[[nodiscard]] bool verify_diff_enabled() noexcept;

class PredictionService {
 public:
  explicit PredictionService(ServiceConfig config = {});
  ~PredictionService();
  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Register a workload (idempotent). When a checkpoint for `name` exists
  /// under checkpoint_dir, its model is restored — returns true when a model
  /// is live for the workload after the call.
  bool add_workload(const std::string& name);

  /// Register + publish a model loaded from a .ldm file (warm start from a
  /// model tuned offline by `loaddynamics train`).
  void load_workload(const std::string& name, const std::string& path);

  /// Publish `model` as the workload's current version: the registry takes a
  /// copy that shares the model's immutable weights, atomically swaps the
  /// pointer, and writes a checkpoint. In-flight predictions keep the
  /// previous version.
  void publish(const std::string& name, const core::TrainedModel& model);

  /// Ingest one actual observation (creates the workload on first use).
  /// Feeds the drift monitor; may enqueue a background retrain.
  void observe(const std::string& name, double value);
  void observe_many(const std::string& name, std::span<const double> values);

  /// Forecast the next `horizon` intervals from the current snapshot.
  /// Throws std::runtime_error when no model is published for `name`.
  [[nodiscard]] std::vector<double> predict(const std::string& name, std::size_t horizon);

  /// predict() + the degradation level that produced the forecast. The
  /// fallback chain (current model -> last-known-good snapshot -> EWMA
  /// baseline) guarantees a finite forecast whenever a model was ever
  /// published and at least one observation exists; only those two
  /// preconditions still throw.
  [[nodiscard]] PredictResult predict_detailed(const std::string& name, std::size_t horizon);

  /// Queue a background warm retrain. Returns false when the workload has no
  /// published model yet or a retrain is already pending.
  bool request_retrain(const std::string& name);

  /// Block until every shard's retrain queue is drained and idle.
  void wait_idle();

  /// Persist the workload's current model to `path` (independent of the
  /// automatic checkpoints).
  void save_workload(const std::string& name, const std::string& path) const;

  [[nodiscard]] WorkloadStats stats(const std::string& name) const;
  /// All registered workloads, globally sorted (k-way shard merge).
  [[nodiscard]] std::vector<std::string> workload_names() const;
  [[nodiscard]] std::shared_ptr<const PublishedModel> current_model(
      const std::string& name) const {
    return registry_.current(name);
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::size_t shard_count() const noexcept { return registry_.shard_count(); }
  [[nodiscard]] std::size_t shard_of(const std::string& name) const noexcept {
    return registry_.shard_of(name);
  }
  /// Workloads registered on one shard, sorted. The shard-streaming form of
  /// workload_names(): WORKLOADS/STATS iterate shards instead of
  /// materializing one fleet-wide list.
  [[nodiscard]] std::vector<std::string> shard_workload_names(std::size_t shard) const;

  /// Cross-shard aggregate of the per-shard prediction-latency histograms
  /// (ld_predict_latency{shard=}), merged via LatencyHistogram::merged() —
  /// the fleet-wide tail with the per-shard outliers still visible in the
  /// per-shard series.
  [[nodiscard]] metrics::LatencyHistogram fleet_predict_latency() const;

  /// Current retrain-queue depth of every shard (index = shard id). One
  /// lock, O(shards) — cheap enough for /statusz polling.
  [[nodiscard]] std::vector<std::size_t> shard_queue_depths() const;

  // --- Durability (DESIGN.md §15; all require ServiceConfig::wal.dir) ---

  [[nodiscard]] bool wal_enabled() const noexcept { return wal_ != nullptr; }

  /// Rebuild state from the snapshot manifest plus the per-shard WAL tails
  /// (replayed in parallel on the shared ThreadPool). Call once, before any
  /// traffic — replay must never run concurrently with appends. Torn tails
  /// are truncated, corrupt segments quarantined; a missing manifest is a
  /// cold start. Throws only when the WAL is disabled.
  RecoveryStats recover();

  /// Compact the journals into an atomic snapshot manifest: rotate every
  /// shard's segment, capture tenant state, durably write the manifest
  /// (tmp+rename+`.prev`), then delete the fully-compacted segments.
  /// Returns the manifest path. Throws when the WAL is disabled or the
  /// manifest write fails (segments are kept in that case — no record is
  /// ever deleted before a manifest covering it is durable).
  std::string write_snapshot();

  /// fsync every journal (graceful-drain flush).
  void flush_wal();

  /// The stats of the last recover() on this instance (zeroes before then).
  [[nodiscard]] RecoveryStats last_recovery() const;

  /// Update ld_wal_segments / ld_snapshot_age_seconds for a scrape.
  void refresh_wal_gauges() const;

 private:
  /// Per-workload registry instruments, resolved once at workload creation
  /// (all labeled workload=<name>). Pointers stay valid forever: the global
  /// registry is leaked.
  struct Instruments {
    obs::Histogram* predict_latency = nullptr;
    obs::Histogram* retrain_seconds = nullptr;
    obs::Counter* predictions = nullptr;
    obs::Counter* observations = nullptr;
    obs::Counter* drift = nullptr;
    obs::Counter* retrains = nullptr;
    obs::Counter* rejected = nullptr;          ///< ld_rejected_samples_total
    obs::Counter* degraded = nullptr;          ///< ld_degraded_predictions_total
    obs::Counter* retrain_failures = nullptr;  ///< ld_serving_retrain_failures_total
    obs::Counter* retrain_retries = nullptr;   ///< ld_serving_retrain_retries_total
    obs::Counter* retrain_timeouts = nullptr;  ///< ld_serving_retrain_timeouts_total
  };

  struct Workload {
    Workload(const core::DriftConfig& drift, const std::string& name);
    std::mutex mu;  ///< guards everything below; held only for brief sections
    std::vector<double> history;     ///< capped tail of the observed series
    std::size_t observations = 0;    ///< total observed (absolute step count)
    std::size_t predictions = 0;
    std::size_t retrains = 0;
    std::uint64_t version = 0;
    double baseline_mape = 0.0;
    std::size_t last_fit_step = 0;   ///< absolute step of the last publish
    core::DriftMonitor monitor;
    bool retrain_pending = false;
    /// The previously published version — the fallback when the current
    /// model misbehaves (see predict_detailed). Updated on every publish.
    std::shared_ptr<const PublishedModel> last_good;
    std::size_t rejected = 0;
    std::size_t degraded = 0;
    std::size_t retrain_failures = 0;
    std::size_t retrain_retries = 0;
    std::size_t retrain_timeouts = 0;
    fault::DegradationLevel last_level = fault::DegradationLevel::kLive;
    Instruments obs;  ///< lock-free; safe to touch without holding mu
  };

  /// One scheduled retrain. Ordered by priority (drift severity × observed
  /// traffic) descending, FIFO (seq) within equal priority.
  struct RetrainJob {
    double priority = 0.0;
    std::uint64_t seq = 0;
    std::string name;
    [[nodiscard]] bool operator<(const RetrainJob& other) const noexcept {
      if (priority != other.priority) return priority < other.priority;
      return seq > other.seq;  // earlier enqueue wins ties
    }
  };

  /// Per-shard workload map + retrain queue. The map mutex shards what used
  /// to be one service-wide workloads_mu_; the queue fields are guarded by
  /// the service-wide sched_mu_ (scheduling metadata only — enqueues happen
  /// at drift-event rate, orders of magnitude below the predict/observe hot
  /// path).
  struct Shard {
    mutable std::mutex map_mu;
    std::map<std::string, std::unique_ptr<Workload>> workloads;

    std::vector<RetrainJob> queue;  ///< binary heap (std::push/pop_heap)
    bool drain_active = false;      ///< one drain task per shard at a time
    Rng backoff_rng{0};             ///< jitters retry backoff; drain-task-only
    obs::Histogram* predict_latency = nullptr;  ///< ld_predict_latency{shard=}
    obs::Gauge* queue_depth = nullptr;          ///< ld_shard_queue_depth{shard=}
  };

  Workload& ensure_workload(const std::string& name);
  [[nodiscard]] Workload& workload(const std::string& name) const;
  /// Best-effort journal append: a WAL failure degrades durability, never
  /// availability — exceptions are counted (ld_wal_append_failures_total)
  /// and logged, and the serving mutation proceeds regardless.
  void wal_append(const std::string& name, const std::string& encoded) noexcept;
  /// Restore one manifest tenant (registration + checkpoint warm start +
  /// counters/history). Failures log and leave the tenant degraded.
  void restore_tenant(const wal::TenantState& tenant, RecoveryStats& stats);
  /// Apply one replayed journal record (idempotent — see DESIGN.md §15).
  void apply_record(const wal::Record& rec, RecoveryStats& stats);
  void publish_model(const std::string& name, const core::TrainedModel& model,
                     bool count_retrain, bool write_checkpoint);
  [[nodiscard]] std::string checkpoint_path(const std::string& name) const;
  void enqueue_retrain(const std::string& name, double priority);
  void dispatcher_loop();
  void drain_shard(std::size_t shard);
  void run_retrain(const std::string& name, Rng& backoff_rng);

  ServiceConfig config_;
  ModelRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Durability layer; null when ServiceConfig::wal.dir is empty.
  std::unique_ptr<wal::WalManager> wal_;
  /// True while recover() replays — suppresses journal appends (replayed
  /// mutations are already durable) and drift-triggered retrains.
  std::atomic<bool> wal_replaying_{false};
  mutable std::mutex snapshot_mu_;  ///< serializes write_snapshot callers
  mutable std::mutex recovery_mu_;  ///< guards recovery_
  RecoveryStats recovery_;
  /// Steady-clock seconds of the last snapshot write/load; < 0 = never.
  std::atomic<double> last_snapshot_steady_{-1.0};
  obs::Counter* wal_append_failures_ = nullptr;
  obs::Gauge* recovery_seconds_gauge_ = nullptr;
  obs::Gauge* snapshot_age_gauge_ = nullptr;
  obs::Gauge* wal_segments_gauge_ = nullptr;
  /// Process-wide degradation mix, indexed by fault::DegradationLevel:
  /// ld_predictions_by_level_total{level=live|snapshot|baseline}. Unlike the
  /// per-workload ld_degraded_predictions_total, this stays O(1) series for
  /// the fleet — /statusz reads it without touching any shard.
  std::array<obs::Counter*, 3> level_counters_{};

  std::mutex publish_mu_;  ///< serializes publishes (never on the predict path)

  /// Retrain scheduling: dispatcher submits one drain task per backlogged
  /// shard to the shared ThreadPool; wait_idle() watches the counters.
  mutable std::mutex sched_mu_;
  std::condition_variable sched_cv_;  ///< wakes the dispatcher
  std::condition_variable idle_cv_;   ///< wakes wait_idle / the destructor
  std::size_t pending_jobs_ = 0;      ///< queued, not yet started
  std::size_t active_drains_ = 0;     ///< drain tasks in flight on the pool
  std::uint64_t job_seq_ = 0;         ///< FIFO tiebreak for equal priorities
  /// Cancelled (under sched_mu_) by the destructor. Also the parent of every
  /// retrain attempt's token and of the retry backoff sleep, so shutdown
  /// abandons an in-flight retrain at its next cancellation poll instead of
  /// waiting it out.
  fault::CancelToken stop_token_;
  std::thread dispatcher_;
};

}  // namespace ld::serving

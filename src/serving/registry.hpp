// Lock-free model registry: the read side of the serving layer.
//
// A PublishedModel is one immutable model version: a TrainedModel plus its
// version number. A TrainedModel's forecasts are const and thread-safe (the
// fused step keeps its state in thread-local buffers and only reads the
// packed weights), so one instance serves every concurrent prediction, and
// the copy a PublishedModel takes shares its source's network: tenants
// published from one TrainedModel share one set of weights.
//
// The ModelRegistry maps workload names to their current PublishedModel with
// RCU semantics, sharded so a fleet of independent tenants never contends on
// one map: each workload hashes (stable FNV-1a, so placement is identical
// across processes and platforms) to one of N shards, and each shard is its
// own atomic shared_ptr to an immutable persistent hash-array-mapped trie
// (persistent_map.hpp, DESIGN.md §16). Readers load the shard pointer and
// never take a lock; writers (model publishes — rare) build the next map
// version under the shard's writer mutex by path-copying the O(log n) spine
// from the root to the touched leaf — NOT by copying the whole shard — and
// atomically swap the new root in. A publish on shard 3 is invisible to
// traffic on shard 5, and a publish into a 1M-tenant shard costs the same
// handful of node clones as a publish into an empty one: registration
// sweeps stay sub-linear in fleet size (ROADMAP item 1).
// In-flight predictions keep the snapshot they started with alive through
// shared ownership, so a concurrent publish can never invalidate them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "serving/persistent_map.hpp"

namespace ld::obs {
class Histogram;
}  // namespace ld::obs

namespace ld::serving {

/// Stable workload -> shard placement (64-bit FNV-1a, reduced mod `shards`).
/// Deliberately not std::hash: the same workload set must land on the same
/// shards in every process, so shard-local artifacts (queues, metrics) are
/// comparable across runs and the LD_SHARDS determinism tests are exact.
[[nodiscard]] std::size_t workload_shard(std::string_view name, std::size_t shards) noexcept;

/// Shard count from LD_SHARDS (clamped to [1, 256]), falling back to
/// std::thread::hardware_concurrency(). Mirrors ThreadPool::default_threads.
[[nodiscard]] std::size_t default_shards();

/// One immutable published model version.
class PublishedModel {
 public:
  /// Copy `model`; the copy shares the source's immutable network, so the
  /// source may be destroyed at any time.
  PublishedModel(const core::TrainedModel& model, std::uint64_t version)
      : model_(std::make_shared<const core::TrainedModel>(model)), version_(version) {}

  [[nodiscard]] static std::shared_ptr<const PublishedModel> make(
      const core::TrainedModel& model, std::uint64_t version) {
    return std::make_shared<const PublishedModel>(model, version);
  }

  /// Safe to call from any number of threads at once.
  [[nodiscard]] double predict_next(std::span<const double> history) const {
    return model_->predict_next(history);
  }
  [[nodiscard]] std::vector<double> predict_horizon(std::span<const double> history,
                                                    std::size_t steps) const {
    return model_->predict_horizon(history, steps);
  }

  [[nodiscard]] const core::TrainedModel& model() const noexcept { return *model_; }
  [[nodiscard]] const core::Hyperparameters& hyperparameters() const noexcept {
    return model_->hyperparameters();
  }
  [[nodiscard]] double validation_mape() const noexcept { return model_->validation_mape(); }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  /// Computed on demand: copies the weights out of the network.
  [[nodiscard]] core::ModelSnapshot snapshot() const { return model_->snapshot(); }

 private:
  std::shared_ptr<const core::TrainedModel> model_;
  std::uint64_t version_ = 0;
};

/// Sharded persistent-map name -> PublishedModel registry. Reads are
/// wait-free with respect to writers: `current()` never blocks on a publish,
/// and a publish never blocks on readers — or on publishes to other shards.
class ModelRegistry {
 public:
  /// One shard's immutable map version. Exposed so snapshot capture
  /// (service write_snapshot) can pin a single consistent version and query
  /// it repeatedly instead of racing N independent root loads.
  using Map = PersistentHashMap<std::shared_ptr<const PublishedModel>>;

  /// `shards` = 0 resolves default_shards() (LD_SHARDS / hardware threads).
  explicit ModelRegistry(std::size_t shards = 1);

  /// The workload's current model, or nullptr when none is published yet.
  [[nodiscard]] std::shared_ptr<const PublishedModel> current(const std::string& name) const;

  /// Atomically swap in a new model version for `name` (insert or replace).
  /// Only publishes to the same shard serialize with each other. Cost is
  /// O(log shard-size) — the persistent map copies the root-to-leaf spine,
  /// never the shard (timed by ld_registry_publish_latency{shard=}).
  void publish(const std::string& name, std::shared_ptr<const PublishedModel> model);

  /// All names, globally sorted (k-way merge of the per-shard name-sorted
  /// runs — sort keys are workload names, never hashes, so the output is
  /// byte-identical to the pre-HAMT std::map registry).
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(std::string_view name) const noexcept {
    return workload_shard(name, shards_.size());
  }
  /// Names registered on one shard, sorted (shard-local snapshot; the trie
  /// iterates in hash order, so this collects and name-sorts — O(k log k)).
  [[nodiscard]] std::vector<std::string> shard_names(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;

  /// Pin one shard's current map version. The returned map is immutable and
  /// stays valid (and unchanging) however many publishes follow — the
  /// iteration API for consistent multi-lookup capture (WAL snapshots) and
  /// for streaming a shard without re-loading the root per name.
  [[nodiscard]] std::shared_ptr<const Map> shard_snapshot(std::size_t shard) const;

 private:
  struct Shard {
    std::atomic<std::shared_ptr<const Map>> map;
    std::mutex write_mu;  ///< serializes this shard's writers only
    /// ld_registry_publish_latency{shard=}: times the publish critical
    /// section. Under the pre-PR-10 copy-on-write std::map this measured
    /// the O(shard-size) full copy (the ROADMAP 12s/5k-tenant pathology);
    /// it now measures the O(log n) path copy, and the registry_complexity
    /// regression test + bench_check --fleet gate keep it sub-linear.
    obs::Histogram* publish_latency = nullptr;
  };

  [[nodiscard]] const Shard& shard_for(std::string_view name) const noexcept {
    return *shards_[workload_shard(name, shards_.size())];
  }
  [[nodiscard]] Shard& shard_for(std::string_view name) noexcept {
    return *shards_[workload_shard(name, shards_.size())];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ld::serving

#include "serving/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/registry.hpp"

namespace ld::serving {

std::size_t workload_shard(std::string_view name, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  // 64-bit FNV-1a: stable across processes/platforms, unlike std::hash.
  // The same hash feeds the shard's persistent trie (persistent_map.hpp),
  // so one key is hashed identically for placement and for its trie path.
  return static_cast<std::size_t>(fnv1a64(name) % shards);
}

std::size_t default_shards() {
  if (const char* env = std::getenv("LD_SHARDS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return std::min<std::size_t>(static_cast<std::size_t>(v), 256);
    log::warn("serving: ignoring invalid LD_SHARDS='", env, "'");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, 256);
}

ModelRegistry::ModelRegistry(std::size_t shards) {
  if (shards == 0) shards = default_shards();
  auto& reg = obs::MetricsRegistry::global();
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->map.store(std::make_shared<const Map>());
    shard->publish_latency = &reg.histogram(
        "ld_registry_publish_latency", {{"shard", std::to_string(i)}}, 1e-7, 1e2);
    shards_.push_back(std::move(shard));
  }
}

std::shared_ptr<const PublishedModel> ModelRegistry::current(const std::string& name) const {
  const std::shared_ptr<const Map> map = shard_for(name).map.load(std::memory_order_acquire);
  const std::shared_ptr<const PublishedModel>* found = map->find(name);
  return found == nullptr ? nullptr : *found;
}

void ModelRegistry::publish(const std::string& name,
                            std::shared_ptr<const PublishedModel> model) {
  if (!model) throw std::invalid_argument("ModelRegistry::publish: null model");
  Shard& shard = shard_for(name);
  std::shared_ptr<const Map> old;
  {
    const Stopwatch clock;  // times the O(log shard-size) path copy + swap
    std::scoped_lock lock(shard.write_mu);
    const std::shared_ptr<const Map> cur = shard.map.load(std::memory_order_acquire);
    auto next = std::make_shared<const Map>(cur->set(name, std::move(model)));
    old = shard.map.exchange(std::move(next), std::memory_order_acq_rel);
    shard.publish_latency->observe(clock.seconds());
  }
  // The displaced map version (and, when no reader still holds it, the
  // replaced model version inside it) is dropped here, outside the shard's
  // write_mu.
  old.reset();
}

std::vector<std::string> ModelRegistry::names() const {
  // Snapshot every shard once, sort each shard's names, then k-way merge
  // the (disjoint) sorted runs: globally name-sorted output — identical
  // bytes to the pre-HAMT sorted-map registry — without one fleet-wide map.
  std::vector<std::vector<std::string>> runs;
  runs.reserve(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    runs.push_back(shard_names(i));
    total += runs.back().size();
  }
  std::vector<std::size_t> pos(runs.size(), 0);
  const auto later = [&](std::size_t a, std::size_t b) {
    return runs[a][pos[a]] > runs[b][pos[b]];
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(later)> heads(later);
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (!runs[i].empty()) heads.push(i);
  std::vector<std::string> out;
  out.reserve(total);
  while (!heads.empty()) {
    const std::size_t i = heads.top();
    heads.pop();
    out.push_back(std::move(runs[i][pos[i]]));
    if (++pos[i] < runs[i].size()) heads.push(i);
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_)
    total += shard->map.load(std::memory_order_acquire)->size();
  return total;
}

std::vector<std::string> ModelRegistry::shard_names(std::size_t shard) const {
  return shards_.at(shard)->map.load(std::memory_order_acquire)->sorted_keys();
}

std::size_t ModelRegistry::shard_size(std::size_t shard) const {
  return shards_.at(shard)->map.load(std::memory_order_acquire)->size();
}

std::shared_ptr<const ModelRegistry::Map> ModelRegistry::shard_snapshot(
    std::size_t shard) const {
  return shards_.at(shard)->map.load(std::memory_order_acquire);
}

}  // namespace ld::serving

#include "serve/eval_cache.hpp"

#include <functional>
#include <utility>

#include "arch/params.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {

namespace {

// '\x1f' (unit separator) cannot appear in fingerprints (hex), config or
// workload names, so the concatenation is collision-free.
std::string cache_key(std::string_view fingerprint, const std::string& config,
                      const std::string& workload) {
  std::string key;
  key.reserve(fingerprint.size() + 2 + config.size() + workload.size());
  key += fingerprint;
  key += '\x1f';
  key += config;
  key += '\x1f';
  key += workload;
  return key;
}

// Process-wide mirrors of the per-instance counters (see Stats doc).
// Looked up once; recording through the references is lock-free.
struct CacheMetrics {
  util::Counter& hits;
  util::Counter& misses;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m{
      util::MetricsRegistry::global().counter("serve.eval_cache.hits"),
      util::MetricsRegistry::global().counter("serve.eval_cache.misses")};
  return m;
}

}  // namespace

EvalCache::EvalCache() : shards_(kShards) {}

EvalCache::Shard& EvalCache::shard_for(std::string_view key) noexcept {
  const std::size_t h = std::hash<std::string_view>{}(key);
  return shards_[h % shards_.size()];
}

std::shared_ptr<const core::EvalContext> EvalCache::get_or_compute(
    std::string_view model_fingerprint, const std::string& config,
    const std::string& workload, const sim::PerfSimulator& sim) {
  const std::string key = cache_key(model_fingerprint, config, workload);
  Shard& shard = shard_for(key);
  {
    std::lock_guard lock(shard.mu);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      cache_metrics().hits.inc();
      return it->second;
    }
  }

  // Compute outside the lock with the caller's simulator.  The fill is
  // strictly insert-after-successful-compute: if anything below throws —
  // the lookup, the simulation, an (injected) allocation failure — the
  // half-built context dies with this frame and the map is untouched, so
  // a failed fill can never publish a partially-constructed entry.
  AUTOPOWER_FAULT_POINT("serve.eval_cache.compute");
  auto ctx = std::make_shared<core::EvalContext>();
  ctx->cfg = &arch::boom_config(config);  // static storage; pointer stable
  ctx->workload = workload;
  const auto& profile = workload::workload_by_name(workload);
  ctx->program = workload::program_features(profile);
  ctx->events = sim.simulate(*ctx->cfg, profile);
  // The insert's own allocation failing (strong guarantee of emplace)
  // likewise leaves the map without the key.
  AUTOPOWER_FAULT_POINT("serve.eval_cache.insert");

  std::lock_guard lock(shard.mu);
  const auto [it, inserted] = shard.map.emplace(key, std::move(ctx));
  // Only the winning insert is a miss; a lost race adopts the published
  // context and counts as a hit (see Stats doc in the header).
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().misses.inc();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().hits.inc();
  }
  return it->second;
}

EvalCache::Stats EvalCache::stats() const noexcept {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

std::size_t EvalCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

void EvalCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.map.clear();
  }
}

}  // namespace autopower::serve

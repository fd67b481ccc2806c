#include "util/structural_cache.hpp"

#include <algorithm>
#include <string>

#include "util/metrics.hpp"

namespace autopower::util {

StructuralSimCache::StructuralSimCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  // Bounded mode splits the total budget evenly across every shard of
  // every lane; each shard keeps at least one slot so no key can become
  // uncacheable.
  const std::size_t per_shard =
      max_entries == 0
          ? 0
          : std::max<std::size_t>(1,
                                  max_entries / (kNumSubSims * kShardsPerSub));
  for (Lane& lane : lanes_) {
    lane.shards.resize(kShardsPerSub);
    if (per_shard != 0) {
      for (Shard& shard : lane.shards) {
        shard.capacity = per_shard;
        shard.slots = std::make_unique<Slot[]>(per_shard);
        shard.index.reserve(per_shard);
      }
    }
  }
}

StructuralSimCache::Stats StructuralSimCache::stats() const noexcept {
  // The combined view: the L1 tier answers a lookup (flushed hit) or
  // forwards it, and every forwarded lookup lands in exactly one lane as
  // an L2 hit or miss — so hits(total) = l1_hits + l2_hits and
  // misses(total) = l2_misses keeps hits + misses == lookups.
  Stats total;
  for (const Lane& lane : lanes_) {
    total.hits += lane.hits.load(std::memory_order_relaxed);
    total.misses += lane.misses.load(std::memory_order_relaxed);
    total.evictions += lane.evictions.load(std::memory_order_relaxed);
  }
  total.hits += l1_hits_.load(std::memory_order_relaxed);
  return total;
}

StructuralSimCache::Stats StructuralSimCache::stats(SubSim sub) const noexcept {
  const Lane& lane = lanes_[static_cast<std::size_t>(sub)];
  return {lane.hits.load(std::memory_order_relaxed),
          lane.misses.load(std::memory_order_relaxed),
          lane.evictions.load(std::memory_order_relaxed)};
}

StructuralSimCache::Stats StructuralSimCache::l1_stats() const noexcept {
  return {l1_hits_.load(std::memory_order_relaxed),
          l1_misses_.load(std::memory_order_relaxed), 0};
}

void StructuralSimCache::absorb_l1(std::uint64_t hits,
                                   std::uint64_t misses) noexcept {
  l1_hits_.fetch_add(hits, std::memory_order_relaxed);
  l1_misses_.fetch_add(misses, std::memory_order_relaxed);
}

std::size_t StructuralSimCache::size() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    for (const Shard& shard : lane.shards) {
      std::shared_lock lock(shard.mu);
      n += shard.capacity == 0 ? shard.map.size() : shard.index.size();
    }
  }
  return n;
}

void StructuralSimCache::clear() {
  for (Lane& lane : lanes_) {
    for (Shard& shard : lane.shards) {
      std::unique_lock lock(shard.mu);
      shard.map.clear();
      shard.index.clear();
      shard.used = 0;
      shard.hand = 0;
    }
    lane.hits.store(0, std::memory_order_relaxed);
    lane.misses.store(0, std::memory_order_relaxed);
    lane.evictions.store(0, std::memory_order_relaxed);
  }
  l1_hits_.store(0, std::memory_order_relaxed);
  l1_misses_.store(0, std::memory_order_relaxed);
}

void StructuralSimCache::export_metrics(MetricsRegistry& registry) const {
  Stats l2_total;
  for (std::size_t i = 0; i < kNumSubSims; ++i) {
    const auto sub = static_cast<SubSim>(i);
    const Stats lane = stats(sub);
    l2_total.hits += lane.hits;
    l2_total.misses += lane.misses;
    l2_total.evictions += lane.evictions;
    const std::string prefix =
        "sim.structural.l2." + std::string(sub_sim_name(sub));
    registry.gauge(prefix + ".hits").set(static_cast<double>(lane.hits));
    registry.gauge(prefix + ".misses").set(static_cast<double>(lane.misses));
  }
  registry.gauge("sim.structural.l2.entries")
      .set(static_cast<double>(size()));
  registry.gauge("sim.structural.l2.evictions")
      .set(static_cast<double>(l2_total.evictions));
  const Stats l1 = l1_stats();
  registry.gauge("sim.structural.l1.hits").set(static_cast<double>(l1.hits));
  registry.gauge("sim.structural.l1.misses")
      .set(static_cast<double>(l1.misses));
}

std::string_view StructuralSimCache::sub_sim_name(SubSim sub) noexcept {
  switch (sub) {
    case SubSim::kICache: return "icache";
    case SubSim::kDCache: return "dcache";
    case SubSim::kItlb: return "itlb";
    case SubSim::kDtlb: return "dtlb";
    case SubSim::kBranch: return "branch";
  }
  return "unknown";
}

StructuralL1::StructuralL1(std::shared_ptr<StructuralSimCache> l2,
                           std::size_t entries_per_lane)
    : l2_(std::move(l2)) {
  std::size_t n = 64;
  while (n < entries_per_lane) n <<= 1;
  lane_size_ = n;
  mask_ = n - 1;
  entries_.resize(lane_size_ * StructuralSimCache::kNumSubSims);
}

StructuralL1::~StructuralL1() { flush_stats(); }

void StructuralL1::flush_stats() noexcept {
  if (hits_ == 0 && misses_ == 0) return;
  l2_->absorb_l1(hits_, misses_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace autopower::util

// Two-level memo bank for the performance simulator's structural
// sub-simulations (the Graphite private-L1 / shared-sparse-L2 layout).
//
// The simulator's expensive work is five independent structural
// measurements per (configuration, phase): I-cache, D-cache, I-TLB, D-TLB
// and branch-predictor streams of thousands of synthetic references each.
// Every one of them reads only a small subset of the hardware parameters,
// so on a design-space sweep that varies ROB/width/queue parameters the
// measurements are identical across configurations.  Each sub-simulation's
// scalar result (a miss/mispredict rate) lives in its own *lane*, keyed on
// a 64-bit hash of exactly the inputs that sub-simulation reads — the
// decoupling that turns an O(configs) sweep cost into O(1) per distinct
// structural sub-key.
//
// The hierarchy (million-cell sweeps; DESIGN.md "L1/L2 memo hierarchy"):
//   * StructuralL1 — a per-worker PRIVATE direct-mapped cache in front of
//     the shared tier.  Thread-private by construction, so a hit is one
//     array probe: no lock, no atomic, no shared cache line.  On a warm
//     sweep essentially every lookup terminates here.
//   * StructuralSimCache — the shared L2 "directory": lanes of
//     independently-locked shards (shared_lock lookup, unique_lock
//     insert) with FIRST-INSERT-WINS ownership.  Optionally bounded
//     (`max_entries`) with CLOCK (second-chance) eviction per shard, so
//     a sweep's cache footprint respects `sweep --memory-budget`.
//
// Thread-safety semantics of the shared tier (modeled on serve::EvalCache):
//   * Lookups take a shared (reader) lock and inserts a unique (writer)
//     lock, so concurrent sweep workers hitting warm entries never
//     serialise; CLOCK reference bits are relaxed atomics touched under
//     the shared lock.
//   * On a miss the value is computed OUTSIDE any lock.  Two threads may
//     transiently duplicate the same deterministic computation; the first
//     insert wins and both observe one published value.  Because every
//     sub-simulation is a pure function of its key's inputs, the race is
//     benign and results stay bit-identical to an unshared run.  For the
//     same reason an eviction only ever costs recomputation: a bounded
//     cache is bit-identical to an unbounded one (property-tested).
//   * stats() counters are relaxed atomics — approximate while workers
//     are still running, exact once they have quiesced.  A miss is
//     counted only by the WINNING insert, so after quiescing
//     `misses == entries created` (== size() when nothing was evicted or
//     cleared) and `hits + misses == lookups`; a thread that loses the
//     cold-key race counts a hit.  stats() aggregates the L1 counters
//     that StructuralL1 instances flushed back, so the totals cover every
//     lookup regardless of which tier answered it.
//
// The cache stores plain doubles and 64-bit keys only, so it lives in
// src/util/ below the simulator; sim/perfsim.cpp owns the key schema
// (which parameters feed which lane — documented in DESIGN.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/fault.hpp"

namespace autopower::util {

class MetricsRegistry;

class StructuralSimCache {
 public:
  /// One lane per structural sub-simulation of the performance simulator.
  enum class SubSim : std::size_t {
    kICache = 0,
    kDCache,
    kItlb,
    kDtlb,
    kBranch,
  };
  static constexpr std::size_t kNumSubSims = 5;

  /// Rough resident cost of one L2 entry (key + value + slot + index
  /// bucket); what `sweep --memory-budget` divides by to size the cache.
  static constexpr std::size_t kApproxEntryBytes = 64;

  /// Independently-locked shards in each lane.
  static constexpr std::size_t kShardsPerSub = 8;

  /// `max_entries` == 0 keeps the cache unbounded; a positive value
  /// bounds the TOTAL entry count across all lanes and shards, evicting
  /// CLOCK-style per shard (each shard owns an equal slice of the
  /// budget, at least one entry).
  explicit StructuralSimCache(std::size_t max_entries = 0);

  StructuralSimCache(const StructuralSimCache&) = delete;
  StructuralSimCache& operator=(const StructuralSimCache&) = delete;

  /// Returns the memoised value for `key` in lane `sub`, invoking
  /// `compute` (outside all locks) on a miss.  `compute` must be a pure
  /// function of the inputs hashed into `key`.
  template <typename Fn>
  double get_or_compute(SubSim sub, std::uint64_t key, Fn&& compute) {
    Lane& lane = lanes_[static_cast<std::size_t>(sub)];
    Shard& shard = lane.shards[key % lane.shards.size()];
    {
      std::shared_lock lock(shard.mu);
      double value = 0.0;
      if (shard.lookup(key, value)) {
        lane.hits.fetch_add(1, std::memory_order_relaxed);
        return value;
      }
    }
    // Insert-after-successful-compute: a throwing filler (or a failing
    // insert allocation — the shard containers give the strong guarantee)
    // propagates without touching the map, so no lane can hold a partial
    // entry.
    AUTOPOWER_FAULT_POINT("util.structural_cache.fill");
    const double value = compute();
    AUTOPOWER_FAULT_POINT("util.structural_cache.insert");
    std::unique_lock lock(shard.mu);
    // Only the winning insert counts the miss; a lost race adopts the
    // published value (bit-identical anyway — the computation is
    // deterministic in the key's inputs) and counts as a hit, keeping
    // `misses == entries created` exact after the workers quiesce.
    bool evicted = false;
    const bool inserted = shard.insert(key, value, evicted);
    (inserted ? lane.misses : lane.hits)
        .fetch_add(1, std::memory_order_relaxed);
    if (evicted) lane.evictions.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// Aggregate counters across all lanes PLUS the flushed private-L1
  /// counters: `hits` counts lookups answered by either tier, `misses`
  /// counts actual computes, so `hits + misses == lookups` end to end.
  [[nodiscard]] Stats stats() const noexcept;
  /// Counters of one L2 lane (the directory tier only — private L1s are
  /// not lane-resolved).
  [[nodiscard]] Stats stats(SubSim sub) const noexcept;
  /// The flushed private-L1 aggregate: hits answered without touching
  /// the shared tier, misses forwarded to it.
  [[nodiscard]] Stats l1_stats() const noexcept;

  /// Adds a private L1's counters into the shared aggregate; called by
  /// StructuralL1::flush_stats (and its destructor).
  void absorb_l1(std::uint64_t hits, std::uint64_t misses) noexcept;

  /// Publishes a per-lane L2 hit/miss snapshot plus the tier aggregates
  /// into `registry` as gauges: "sim.structural.l2.<lane>.hits" /
  /// ".misses", "sim.structural.l2.entries", "sim.structural.l2.evictions",
  /// "sim.structural.l1.hits" and "sim.structural.l1.misses".  Last
  /// writer wins; the serve and sweep layers call this after each run.
  void export_metrics(MetricsRegistry& registry) const;

  /// Number of memoised entries across all lanes and shards.
  [[nodiscard]] std::size_t size() const;

  /// Total entry bound (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const noexcept { return max_entries_; }

  /// Drops every entry and zeroes the counters (including the absorbed
  /// L1 aggregate).
  void clear();

  [[nodiscard]] static std::string_view sub_sim_name(SubSim sub) noexcept;

 private:
  /// One slot of a bounded shard's CLOCK ring.  `ref` is the
  /// second-chance bit: set on every hit (relaxed, under the shared
  /// lock), cleared by the sweeping hand (under the unique lock).
  struct Slot {
    std::uint64_t key = 0;
    double value = 0.0;
    std::atomic<std::uint8_t> ref{0};
  };

  struct Shard {
    mutable std::shared_mutex mu;
    // Unbounded mode: a plain hash map.
    std::unordered_map<std::uint64_t, double> map;
    // Bounded mode (capacity > 0): `index` maps key -> slot, `slots` is
    // the CLOCK ring, `hand` the sweep position.
    std::size_t capacity = 0;
    std::unordered_map<std::uint64_t, std::size_t> index;
    std::unique_ptr<Slot[]> slots;
    std::size_t used = 0;
    std::size_t hand = 0;

    /// Reader-side probe; sets the CLOCK reference bit on a bounded hit.
    bool lookup(std::uint64_t key, double& value) const {
      if (capacity == 0) {
        const auto it = map.find(key);
        if (it == map.end()) return false;
        value = it->second;
        return true;
      }
      const auto it = index.find(key);
      if (it == index.end()) return false;
      Slot& slot = slots[it->second];
      slot.ref.store(1, std::memory_order_relaxed);
      value = slot.value;
      return true;
    }

    /// Writer-side insert (unique lock held).  Returns false when `key`
    /// was already present (lost first-insert race); sets `evicted` when
    /// a CLOCK victim was displaced.  Strong guarantee: a throwing
    /// container operation leaves the shard unchanged.
    bool insert(std::uint64_t key, double value, bool& evicted) {
      if (capacity == 0) {
        return map.emplace(key, value).second;
      }
      if (index.find(key) != index.end()) return false;
      std::size_t slot_i;
      if (used < capacity) {
        slot_i = used;
        index.emplace(key, slot_i);  // may throw; nothing changed yet
        ++used;
      } else {
        // CLOCK sweep: clear reference bits until an unreferenced slot
        // comes up.  Bounded: after one full lap every bit is clear.
        for (;;) {
          Slot& candidate = slots[hand];
          const std::size_t at = hand;
          hand = (hand + 1) % capacity;
          if (candidate.ref.exchange(0, std::memory_order_relaxed) == 0) {
            slot_i = at;
            break;
          }
        }
        index.emplace(key, slot_i);  // may throw; victim still intact
        index.erase(slots[slot_i].key);
        evicted = true;
      }
      Slot& slot = slots[slot_i];
      slot.key = key;
      slot.value = value;
      slot.ref.store(1, std::memory_order_relaxed);
      return true;
    }
  };

  struct Lane {
    std::deque<Shard> shards;  // deque: Shard holds a mutex, must not move
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  std::array<Lane, kNumSubSims> lanes_;
  std::size_t max_entries_ = 0;
  std::atomic<std::uint64_t> l1_hits_{0};
  std::atomic<std::uint64_t> l1_misses_{0};
};

/// A worker-private first-level memo in front of a shared
/// StructuralSimCache.  NOT thread-safe — each worker (each PerfSimulator
/// instance) owns its own.  A hit costs one direct-mapped array probe
/// with no synchronisation whatsoever; a miss forwards to the shared
/// directory tier (which may itself hit) and installs the result locally.
/// The destructor flushes the private hit/miss counters into the backing
/// cache so StructuralSimCache::stats() stays exact after workers retire.
class StructuralL1 {
 public:
  /// `entries_per_lane` is rounded up to a power of two (min 64).
  explicit StructuralL1(std::shared_ptr<StructuralSimCache> l2,
                        std::size_t entries_per_lane = 2048);
  ~StructuralL1();

  StructuralL1(const StructuralL1&) = delete;
  StructuralL1& operator=(const StructuralL1&) = delete;

  template <typename Fn>
  double get_or_compute(StructuralSimCache::SubSim sub, std::uint64_t key,
                        Fn&& compute) {
    Entry& e = entries_[static_cast<std::size_t>(sub) * lane_size_ +
                        (key & mask_)];
    if (e.valid && e.key == key) {
      ++hits_;
      return e.value;
    }
    ++misses_;
    const double value = l2_->get_or_compute(sub, key,
                                             std::forward<Fn>(compute));
    e.key = key;
    e.value = value;
    e.valid = true;
    return value;
  }

  /// Local (unflushed) counters; flush_stats() moves them into the
  /// backing cache's aggregate and zeroes them.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  void flush_stats() noexcept;

  [[nodiscard]] const std::shared_ptr<StructuralSimCache>& shared()
      const noexcept {
    return l2_;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    double value = 0.0;
    bool valid = false;
  };

  std::shared_ptr<StructuralSimCache> l2_;
  std::vector<Entry> entries_;
  std::size_t lane_size_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace autopower::util

// Process-wide metrics: named counters, gauges and fixed-bucket
// histograms for observing the serving, sweep, simulation and training
// layers on a live run.
//
// Design constraints (the serving hot path is the reason this exists):
//   * Recording NEVER takes a lock.  Counters and histograms are sharded
//     over cache-line-padded relaxed atomics indexed by a per-thread slot,
//     so concurrent workers do not bounce a shared line; gauges are a
//     single relaxed atomic<double> (last writer wins).
//   * Instrument lookup (`counter()`, `gauge()`, `histogram()`) takes a
//     registry mutex and is meant for setup time only: call it once,
//     keep the returned reference (instrument addresses are stable for
//     the registry's lifetime), and record through that.
//   * Snapshots (`to_json()`, `value()`, …) use relaxed loads: they are
//     approximate while writers are running and exact once the writers
//     have quiesced — the same contract as the cache stats counters.
//   * A process-wide kill switch (`MetricsRegistry::set_enabled(false)`)
//     turns every record operation into a relaxed load + branch, which is
//     what `bench_metrics_overhead` uses for its uninstrumented baseline.
//     Instrumentation never changes results, only timing: the serving
//     path stays bit-identical with metrics on, off, or toggled mid-run.
//
// Histogram buckets are fixed powers of two: bucket i counts values v
// with bit_width(v) == i, i.e. 0, [1,1], [2,3], [4,7], ... with one
// overflow bucket at the top.  Duration histograms record nanoseconds
// (their names end in `_ns`); size histograms record plain counts.
// `ScopedTimer` records the lifetime of a scope into a histogram.
//
// The canonical instance is `MetricsRegistry::global()` — the CLI's
// `--stats <path>` flag snapshots it via `to_json()`.  Independent
// instances can be created for tests.  The metric-name inventory (which
// site records what) is tabulated in DESIGN.md and README "Observability".
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace autopower::util {

class MetricsRegistry;

namespace metrics_detail {

inline constexpr std::size_t kCounterShards = 8;
inline constexpr std::size_t kHistogramShards = 4;

/// Stable per-thread shard slot (round-robin assigned on first use).
[[nodiscard]] std::size_t thread_slot() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace metrics_detail

/// Monotonic event count, sharded to keep concurrent writers off one
/// cache line.  add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  void inc() noexcept { add(1); }
  /// Sum over shards; exact once writers have quiesced.
  [[nodiscard]] std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::array<metrics_detail::PaddedU64, metrics_detail::kCounterShards>
      shards_;
};

/// Last-written double value (e.g. a rate computed at the end of a run).
class Gauge {
 public:
  void set(double value) noexcept;
  [[nodiscard]] double value() const noexcept;
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket power-of-two histogram over std::uint64_t values.
class Histogram {
 public:
  /// Bucket i counts values with bit_width == i; the last bucket absorbs
  /// everything >= 2^(kBuckets-2) (the overflow range).
  static constexpr std::size_t kBuckets = 40;

  void observe(std::uint64_t value) noexcept { record(value, value, 1); }
  /// Records `n` observations that together measured `total` (a stage
  /// timed once for a batch of n items): count gains n, sum gains
  /// `total`, and the bucket of the mean total / n gains n.  So sum /
  /// count stays the per-item mean however the items were batched.
  void observe_many(std::uint64_t total, std::uint64_t n) noexcept {
    if (n > 0) record(total / n, total, n);
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] std::uint64_t sum() const noexcept;
  /// Count in bucket i (see kBuckets for the bucket → range mapping).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept;
  /// Inclusive upper bound of bucket i (2^i - 1); the overflow bucket
  /// reports std::uint64_t max.
  [[nodiscard]] static std::uint64_t bucket_bound(std::size_t i) noexcept;
  void reset() noexcept;

 private:
  /// n observations summing to `total`, counted in `bucket_value`'s bucket.
  void record(std::uint64_t bucket_value, std::uint64_t total,
              std::uint64_t n) noexcept;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, metrics_detail::kHistogramShards> shards_;
};

/// Named instrument registry.  Thread-safe; see the file comment for the
/// lookup-at-setup / record-through-references usage contract.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use.  References stay valid for the registry's lifetime.  A name
  /// identifies exactly one instrument kind; reusing it for another kind
  /// creates an unrelated instrument (don't).
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"mean":..,"buckets":[..]}},
  /// "histogram_bounds":[...]} with names sorted, numbers round-trip
  /// clean (parseable by serve::JsonValue).
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every registered instrument (names stay registered, so held
  /// references remain valid).
  void reset();

  /// The process-wide registry every built-in instrumentation site
  /// records into.
  [[nodiscard]] static MetricsRegistry& global();

  /// Process-wide recording switch (default on).  When off, every
  /// add/set/observe returns immediately and ScopedTimer skips its clock
  /// reads.
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;

  static std::atomic<bool> enabled_;
};

/// RAII timer: records the scope's duration (nanoseconds) into a
/// histogram on destruction, as `items` observations that share it
/// (Histogram::observe_many).  Constructing with metrics disabled skips
/// the clock reads entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist, std::uint64_t items = 1) noexcept
      : hist_(MetricsRegistry::enabled() ? &hist : nullptr),
        items_(items),
        start_(hist_ != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{}) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->observe_many(ns > 0 ? static_cast<std::uint64_t>(ns) : 0u,
                        items_);
  }

 private:
  Histogram* hist_;
  std::uint64_t items_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace autopower::util

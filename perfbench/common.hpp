// Shared plumbing of the perfbench program: run options, timing and
// statistics helpers, output digests, the in-memory span tracer, metrics
// registry deltas, host facts, and the per-run result record.
//
// Every workload does a FIXED amount of work: the seed only orders inputs
// and picks among inputs of equal cost, and `--seconds` only scales the
// repetition counts (a pure function of the argument, never of elapsed
// time).  See perfbench/README.md for the design.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

/// Worker count T for every parallel stage: at most nproc - 1, at most 2,
/// at least 1.  Recorded in every result.
[[nodiscard]] std::size_t worker_threads();

/// Repetitions of a stage at `opts.seconds`: `reps_per_minute` scaled
/// linearly with the seconds argument, rounded, at least 1.
[[nodiscard]] std::size_t reps_for(const Options& opts,
                                   std::size_t reps_per_minute);

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Peak resident set size (VmHWM) since the last reset_peak_rss(), MiB.
[[nodiscard]] double peak_rss_mib();
/// Resets the peak RSS to the current RSS (Linux clear_refs), so each
/// repetition's own peak can be read.  Where the kernel refuses, the peak
/// stays the process-lifetime peak.
void reset_peak_rss();
/// Returns freed heap memory of every malloc arena to the OS between
/// repetitions, so the peak RSS reflects one repetition's footprint and
/// not how earlier repetitions happened to fragment the arenas.
void release_free_memory();

/// FNV-1a 64 digest, chainable.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Fisher-Yates shuffle driven by a seeded util::Rng.
template <typename T>
void shuffle(std::vector<T>& items, autopower::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

/// Seeded sample of `k` distinct indices in [0, n), ascending.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                      std::size_t k,
                                                      autopower::util::Rng& rng);

// ---- Tracing --------------------------------------------------------

/// In-memory span recorder for the traced run.  Spans are recorded by the
/// benchmark's own code around calls into each layer's public functions
/// (single-threaded call sites only) and written out when the run ends.
/// When disabled, span() records nothing and reads no clock.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t parent = -1;  ///< index into records, -1 for roots
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t items = 1;
  };

  /// Aggregate of all spans of one name.
  struct Summary {
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< total minus time covered by child spans
  };

  class Span {
   public:
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();
    void set_items(std::uint64_t items);

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] Span span(std::string_view name, std::uint64_t items = 1);

  [[nodiscard]] std::map<std::string, Summary> summarize() const;
  [[nodiscard]] Summary summary(const std::string& name) const;
  /// Mean span time of `name` per call, and per recorded item (0 if none).
  [[nodiscard]] double per_call_us(const std::string& name) const;
  [[nodiscard]] double per_item_us(const std::string& name) const;
  /// One JSON line per span, then one line per name summary.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

// ---- Metrics registry deltas ----------------------------------------

/// Parsed util::MetricsRegistry::to_json() snapshot (the same document the
/// daemon's {"cmd":"metrics"} reply embeds).
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::pair<double, double>> histograms;  ///< count, sum

  [[nodiscard]] static RegistrySnapshot parse(std::string_view json);
  [[nodiscard]] static RegistrySnapshot global();

  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] double hist_count(const std::string& name) const;
  [[nodiscard]] double hist_sum(const std::string& name) const;
};

/// `after` minus `before` for counters and histograms; gauges from `after`.
[[nodiscard]] RegistrySnapshot delta(const RegistrySnapshot& before,
                                     const RegistrySnapshot& after);

// ---- Results ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Failure accounting of one phase.
struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
};

struct RunResult {
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<Phase> phases;
  std::map<std::string, std::string> digests;
  std::vector<Metric> end_to_end;   ///< untraced run (BENCHMARK.json names)
  std::vector<Metric> figures;      ///< workload-specific figures (detail)
  std::vector<Metric> layers;       ///< traced run only
  /// Per-repetition values behind each median (detail only).
  std::map<std::string, std::vector<double>> samples;

  void check(bool ok, const std::string& what);
  void add_phase(std::string name, std::uint64_t attempted,
                 std::uint64_t failed);
  [[nodiscard]] bool correct() const { return errors.empty(); }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
};

/// Host and build facts recorded with every result (JSON object text).
[[nodiscard]] std::string host_facts_json(const Options& opts);

}  // namespace perfbench

#include "util/metrics.hpp"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace autopower::util {

std::atomic<bool> MetricsRegistry::enabled_{true};

namespace metrics_detail {

std::size_t thread_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace metrics_detail

// --- Counter -----------------------------------------------------------------

void Counter::add(std::uint64_t n) noexcept {
  if (!MetricsRegistry::enabled()) return;
  shards_[metrics_detail::thread_slot() % shards_.size()].v.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// --- Gauge -------------------------------------------------------------------

void Gauge::set(double value) noexcept {
  if (!MetricsRegistry::enabled()) return;
  value_.store(value, std::memory_order_relaxed);
}

double Gauge::value() const noexcept {
  return value_.load(std::memory_order_relaxed);
}

// --- Histogram ---------------------------------------------------------------

void Histogram::record(std::uint64_t bucket_value, std::uint64_t total,
                       std::uint64_t n) noexcept {
  if (!MetricsRegistry::enabled()) return;
  Shard& shard = shards_[metrics_detail::thread_slot() % shards_.size()];
  const std::size_t bucket =
      std::min<std::size_t>(std::bit_width(bucket_value), kBuckets - 1);
  shard.count.fetch_add(n, std::memory_order_relaxed);
  shard.sum.fetch_add(total, std::memory_order_relaxed);
  shard.buckets[bucket].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::bucket(std::size_t i) const noexcept {
  if (i >= kBuckets) return 0;
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.buckets[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::bucket_bound(std::size_t i) noexcept {
  if (i >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << i) - 1;
}

void Histogram::reset() noexcept {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

namespace {

// %.17g round-trips every double exactly; trailing precision is noise in
// a diagnostics file, not a correctness problem.
void append_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  out += buf;
}

void append_quoted(std::string& out, const std::string& name) {
  // Metric names are code-chosen identifiers ([a-z0-9._]) — no escaping.
  out += '"';
  out += name;
  out += '"';
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ':';
    append_u64(out, c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ':';
    append_double(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    const std::uint64_t count = h->count();
    const std::uint64_t sum = h->sum();
    out += ":{\"count\":";
    append_u64(out, count);
    out += ",\"sum\":";
    append_u64(out, sum);
    out += ",\"mean\":";
    append_double(out, count == 0 ? 0.0
                                  : static_cast<double>(sum) /
                                        static_cast<double>(count));
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (i > 0) out += ',';
      append_u64(out, h->bucket(i));
    }
    out += "]}";
  }
  // Shared bucket schema: inclusive upper bounds, one per bucket.
  out += "},\"histogram_bounds\":[";
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (i > 0) out += ',';
    append_u64(out, Histogram::bucket_bound(i));
  }
  out += "]}";
  return out;
}

}  // namespace autopower::util

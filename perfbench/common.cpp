#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "serve/jsonl.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace perfbench {

std::size_t worker_threads() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long t = std::min<long>(2, nproc - 1);
  return static_cast<std::size_t>(std::max<long>(1, t));
}

std::size_t reps_for(const Options& opts, std::size_t reps_per_minute) {
  const std::size_t scaled =
      (static_cast<std::size_t>(opts.seconds) * reps_per_minute + 30) / 60;
  return std::max<std::size_t>(1, scaled);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

void release_free_memory() { malloc_trim(0); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k,
                                        autopower::util::Rng& rng) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all, rng);
  all.resize(std::min(k, n));
  std::sort(all.begin(), all.end());
  return all;
}

// ---- Tracer ----------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span Tracer::span(std::string_view name, std::uint64_t items) {
  if (!enabled_) return Span(nullptr, 0);
  Record rec;
  rec.name = std::string(name);
  rec.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  rec.items = items;
  rec.start_ns = now_ns();
  records_.push_back(std::move(rec));
  open_.push_back(records_.size() - 1);
  return Span(this, records_.size() - 1);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[index_].end_ns = tracer_->now_ns();
  // Spans close in LIFO order at every call site (RAII scopes).
  tracer_->open_.pop_back();
}

void Tracer::Span::set_items(std::uint64_t items) {
  if (tracer_ != nullptr) tracer_->records_[index_].items = items;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::vector<double> child_us(records_.size(), 0.0);
  for (const Record& rec : records_) {
    if (rec.parent >= 0) {
      child_us[static_cast<std::size_t>(rec.parent)] +=
          static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& rec = records_[i];
    Summary& s = out[rec.name];
    const double us = static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
    s.calls += 1;
    s.items += rec.items;
    s.total_us += us;
    s.self_us += us - child_us[i];
  }
  return out;
}

Tracer::Summary Tracer::summary(const std::string& name) const {
  const auto all = summarize();
  const auto it = all.find(name);
  return it == all.end() ? Summary{} : it->second;
}

double Tracer::per_call_us(const std::string& name) const {
  const Summary s = summary(name);
  return s.calls == 0 ? 0.0 : s.total_us / static_cast<double>(s.calls);
}

double Tracer::per_item_us(const std::string& name) const {
  const Summary s = summary(name);
  return s.items == 0 ? 0.0 : s.total_us / static_cast<double>(s.items);
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << r.name
        << "\",\"parent\":" << r.parent << ",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"items\":" << r.items << "}\n";
  }
  for (const auto& [name, s] : summarize()) {
    out << "{\"summary\":\"" << name << "\",\"calls\":" << s.calls
        << ",\"items\":" << s.items
        << ",\"total_us\":" << autopower::serve::json_number(s.total_us)
        << ",\"self_us\":" << autopower::serve::json_number(s.self_us)
        << "}\n";
  }
}

// ---- Registry snapshots ------------------------------------------------

RegistrySnapshot RegistrySnapshot::parse(std::string_view json) {
  using autopower::serve::JsonValue;
  const JsonValue doc = JsonValue::parse(json);
  RegistrySnapshot snap;
  if (const JsonValue* c = doc.find("counters")) {
    for (const auto& [name, v] : c->as_object()) {
      snap.counters[name] = v.as_number();
    }
  }
  if (const JsonValue* g = doc.find("gauges")) {
    for (const auto& [name, v] : g->as_object()) snap.gauges[name] = v.as_number();
  }
  if (const JsonValue* h = doc.find("histograms")) {
    for (const auto& [name, v] : h->as_object()) {
      snap.histograms[name] = {v.find("count")->as_number(),
                               v.find("sum")->as_number()};
    }
  }
  return snap;
}

RegistrySnapshot RegistrySnapshot::global() {
  return parse(autopower::util::MetricsRegistry::global().to_json());
}

namespace {
double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

double RegistrySnapshot::counter(const std::string& name) const {
  return lookup(counters, name);
}
double RegistrySnapshot::gauge(const std::string& name) const {
  return lookup(gauges, name);
}
double RegistrySnapshot::hist_count(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.first;
}
double RegistrySnapshot::hist_sum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

RegistrySnapshot delta(const RegistrySnapshot& before,
                       const RegistrySnapshot& after) {
  RegistrySnapshot d;
  for (const auto& [name, v] : after.counters) {
    d.counters[name] = v - before.counter(name);
  }
  d.gauges = after.gauges;
  for (const auto& [name, cs] : after.histograms) {
    d.histograms[name] = {cs.first - before.hist_count(name),
                          cs.second - before.hist_sum(name)};
  }
  return d;
}

// ---- Results -----------------------------------------------------------

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

void RunResult::add_phase(std::string name, std::uint64_t attempted,
                          std::uint64_t failed) {
  phases.push_back({std::move(name), attempted, attempted - failed, failed});
}

std::uint64_t RunResult::attempted() const {
  std::uint64_t n = 0;
  for (const Phase& p : phases) n += p.attempted;
  return n;
}

std::uint64_t RunResult::failed() const {
  std::uint64_t n = 0;
  for (const Phase& p : phases) n += p.failed;
  return n;
}

std::string host_facts_json(const Options& opts) {
  namespace simd = autopower::util::simd;
  // Reading the active tier also publishes the util.simd.tier gauge.
  const simd::Tier tier = simd::active_tier();
  std::string out = "{\"nproc\":";
  out += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"simd_tier\":\"" + std::string(simd::tier_name(tier)) + "\"";
  out += ",\"simd_tier_gauge\":" +
         autopower::serve::json_number(
             autopower::util::MetricsRegistry::global()
                 .gauge("util.simd.tier")
                 .value());
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  out += ",\"compiler\":\"" PERFBENCH_COMPILER "\"";
  out += ",\"commit\":\"" + autopower::serve::json_escape(opts.commit) + "\"";
  out += ",\"threads\":" + std::to_string(worker_threads()) + "}";
  return out;
}

}  // namespace perfbench

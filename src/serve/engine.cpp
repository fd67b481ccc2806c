#include "serve/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "arch/component.hpp"
#include "serve/evaluate.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {

std::string_view to_string(PredictMode mode) noexcept {
  switch (mode) {
    case PredictMode::kTotal: return "total";
    case PredictMode::kPerComponent: return "per_component";
    case PredictMode::kTrace: return "trace";
  }
  return "total";
}

PredictMode mode_from_string(std::string_view text) {
  if (text == "total") return PredictMode::kTotal;
  if (text == "per_component") return PredictMode::kPerComponent;
  if (text == "trace") return PredictMode::kTrace;
  throw util::InvalidArgument(
      "unknown mode: " + std::string(text) +
      " (expected total | per_component | trace)");
}

namespace {

// '\x1f' cannot appear in config/workload names; the mode tag makes the
// key unique per response shape.  The fingerprint leads the key so two
// model snapshots can never alias a memo entry — de-routed, not
// invalidated: swapping back to an identical archive re-hits its entries.
std::string response_key(std::string_view fingerprint,
                         const BatchRequest& request) {
  std::string key;
  key.reserve(fingerprint.size() + 3 + request.config.size() +
              request.workload.size() + 16);
  key += fingerprint;
  key += '\x1f';
  key += request.config;
  key += '\x1f';
  key += request.workload;
  key += '\x1f';
  key += to_string(request.mode);
  return key;
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0u;
}

}  // namespace

BatchResponse failed_response(const BatchRequest& request, std::size_t index,
                              std::string error) {
  BatchResponse resp;
  resp.index = index;
  resp.config = request.config;
  resp.workload = request.workload;
  resp.mode = request.mode;
  resp.error = std::move(error);
  return resp;
}

BatchEngine::BatchEngine(std::shared_ptr<const core::AutoPowerModel> model,
                         EngineOptions options)
    : model_(std::move(model)),
      options_(options),
      structural_(std::make_shared<util::StructuralSimCache>()),
      response_shards_(kResponseShards),
      metrics_{util::MetricsRegistry::global().counter(
                   "serve.batch.requests"),
               util::MetricsRegistry::global().counter("serve.batch.failed"),
               util::MetricsRegistry::global().counter(
                   "serve.batch.response_memo.hits"),
               util::MetricsRegistry::global().counter(
                   "serve.batch.response_memo.misses"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.request_latency_ns"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.queue_wait_ns"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.batch_size")} {
  AP_REQUIRE(model_ != nullptr, "BatchEngine: null model");
}

EvalCache::Stats BatchEngine::response_stats() const noexcept {
  return {response_hits_.load(std::memory_order_relaxed),
          response_misses_.load(std::memory_order_relaxed)};
}

void BatchEngine::swap_model(
    std::shared_ptr<const core::AutoPowerModel> model) {
  AP_REQUIRE(model != nullptr, "BatchEngine: null model");
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(model);
}

std::shared_ptr<const core::AutoPowerModel> BatchEngine::model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

std::string BatchEngine::model_fingerprint() const {
  return model()->fingerprint();
}

BatchEngine::ResponseShard& BatchEngine::shard_for(
    const std::string& key) noexcept {
  return response_shards_[std::hash<std::string>{}(key) %
                          response_shards_.size()];
}

bool BatchEngine::answer(const BatchRequest& request, std::size_t index,
                         const sim::PerfSimulator& sim,
                         const core::AutoPowerModel& model,
                         BatchResponse& out) {
  // Outside trace()'s try block: an injected failure here exercises the
  // worker-loop error isolation, not the per-request error reporting.
  AUTOPOWER_FAULT_POINT("serve.engine.handle");
  // Trace responses are never memoised (large payload, rarely repeated).
  if (request.mode == PredictMode::kTrace) {
    out = trace(request, sim, model);
    out.index = index;
    return true;
  }
  // The model is immutable and every stage deterministic, so a repeated
  // (config, workload, mode) query is answered from the response memo.
  const std::string key = response_key(model.fingerprint(), request);
  ResponseShard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  response_hits_.fetch_add(1, std::memory_order_relaxed);
  metrics_.memo_hits.inc();
  out = *it->second;  // memoised with index == 0
  out.index = index;
  return true;
}

BatchResponse BatchEngine::trace(const BatchRequest& request,
                                 const sim::PerfSimulator& sim,
                                 const core::AutoPowerModel& model) {
  BatchResponse resp = failed_response(request, 0, {});
  try {
    // Per-window contexts are trace-specific and not cached: a trace is
    // one large deterministic simulation, not a repeated lookup key.
    const auto& cfg = arch::boom_config(request.config);
    const auto& profile = workload::workload_by_name(request.workload);
    const auto program = workload::program_features(profile);
    const auto windows = sim.simulate_trace(cfg, profile);
    std::vector<core::EvalContext> contexts(windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      contexts[w].cfg = &cfg;
      contexts[w].workload = request.workload;
      contexts[w].program = program;
      contexts[w].events = windows[w];
    }
    resp.trace_mw = model.predict_trace(contexts);
    for (double mw : resp.trace_mw) resp.total_mw += mw;
    if (!resp.trace_mw.empty()) {
      resp.total_mw /= static_cast<double>(resp.trace_mw.size());
    }
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.error = e.what();
  }
  return resp;
}

void BatchEngine::predict_misses(std::span<const BatchRequest> requests,
                                 std::span<const std::size_t> misses,
                                 std::span<const std::uint64_t> lookup_ns,
                                 const sim::PerfSimulator& sim,
                                 const core::AutoPowerModel& model,
                                 std::span<BatchResponse> responses) {
  if (misses.empty()) return;
  const bool timed = util::MetricsRegistry::enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::vector<CellResult> results(misses.size());
  evaluate_cells(
      model,
      [&](std::size_t k, core::EvalContext& ctx) {
        const BatchRequest& request = requests[misses[k]];
        ctx = *cache_.get_or_compute(model.fingerprint(), request.config,
                                     request.workload, sim);
      },
      results,
      std::any_of(misses.begin(), misses.end(), [&](std::size_t i) {
        return requests[i].mode == PredictMode::kPerComponent;
      }));

  for (std::size_t k = 0; k < misses.size(); ++k) {
    const BatchRequest& request = requests[misses[k]];
    BatchResponse resp = failed_response(request, 0, results[k].error);
    // Failed responses are never memoised: evaluation folds transient
    // faults (allocation / injected failures) into ok == false, and a
    // memoised one would serve the stale error after the fault clears.
    // A failure counts one miss, like a winning insert.
    bool miss = true;
    if (results[k].ok) {
      resp.ok = true;
      resp.total_mw = results[k].total_mw;
      if (request.mode == PredictMode::kPerComponent) {
        resp.components.reserve(results[k].power.components.size());
        for (const auto& cp : results[k].power.components) {
          resp.components.push_back(
              {std::string(arch::component_name(cp.component)),
               cp.groups.clock, cp.groups.sram, cp.groups.logic(),
               cp.groups.total()});
        }
      }
      // On a racing miss the first insert wins and both copies are
      // bit-identical anyway (everything is deterministic).  A lost race
      // adopts the published response and counts as a hit (see
      // response_stats doc).
      const std::string key = response_key(model.fingerprint(), request);
      ResponseShard& shard = shard_for(key);
      std::lock_guard lock(shard.mu);
      const auto [it, inserted] = shard.map.emplace(
          key, std::make_shared<const BatchResponse>(std::move(resp)));
      miss = inserted;
      resp = *it->second;
    }
    (miss ? response_misses_ : response_hits_)
        .fetch_add(1, std::memory_order_relaxed);
    (miss ? metrics_.memo_misses : metrics_.memo_hits).inc();
    resp.index = misses[k];
    responses[misses[k]] = std::move(resp);
  }
  if (!timed) return;
  // Engine time per request: its own memo lookup plus an even share of
  // the batch (context builds, the shared predict, memo publishes).
  const std::uint64_t share = ns_since(start) / misses.size();
  for (const std::uint64_t ns : lookup_ns) {
    metrics_.request_latency_ns.observe(ns + share);
  }
}

std::vector<BatchResponse> BatchEngine::run(
    std::span<const BatchRequest> requests) {
  std::vector<BatchResponse> responses(requests.size());
  if (requests.empty()) return responses;

  metrics_.batch_size.observe(requests.size());
  metrics_.requests.add(requests.size());
  const bool timed = util::MetricsRegistry::enabled();
  const auto run_start = std::chrono::steady_clock::now();

  // Pin the published snapshot ONCE: a swap_model() landing mid-run can
  // never tear this batch across two models.
  const std::shared_ptr<const core::AutoPowerModel> pinned = model();

  // Workers pull request indices off a shared atomic counter and write
  // into disjoint response slots, so the output is in input order by
  // construction.  Memo hits and traces are answered on the spot; the
  // misses a worker claimed share one batched evaluation once the
  // counter is drained.  Each worker owns a private PerfSimulator — its
  // phase-rate memo is not thread-safe to share — but all of them share
  // the engine's structural cache, so cache/TLB/branch measurements (for
  // simulate AND simulate_trace) dedupe across workers.
  //
  // Every slot is prefilled as a clean "not processed" failure: a worker
  // lost before answering an index (it failed to start, or died at
  // launch) leaves its share to its siblings, and whatever no worker
  // answered still comes back as a well-formed error response.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i] =
        failed_response(requests[i], i, "request not processed (worker lost)");
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::size_t) {
    sim::PerfSimulator sim(sim::SimOptions{}, structural_);
    std::vector<std::size_t> misses;
    std::vector<std::uint64_t> lookup_ns;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) break;
      // Queue wait: how long this request sat in the batch before a
      // worker picked it up (requests are all "enqueued" at run start).
      if (timed) metrics_.queue_wait_ns.observe(ns_since(run_start));
      const auto start = timed ? std::chrono::steady_clock::now() : run_start;
      // A request whose failure escapes answer() fails alone, exactly
      // like a bad request: its slot gets an error response and the
      // worker moves on to the next index.
      bool answered = true;
      try {
        answered = answer(requests[i], i, sim, *pinned, responses[i]);
      } catch (const std::exception& e) {
        responses[i] = failed_response(requests[i], i, e.what());
      }
      const std::uint64_t ns = timed ? ns_since(start) : 0;
      if (answered) {
        metrics_.request_latency_ns.observe(ns);
      } else {
        misses.push_back(i);
        lookup_ns.push_back(ns);
      }
    }
    predict_misses(requests, misses, lookup_ns, sim, *pinned, responses);
  };
  try {
    util::run_workers(util::worker_count(options_.threads, requests.size()),
                      worker);
  } catch (const std::exception&) {
    // A lost worker is already visible in the response slots it never
    // filled; the batch itself always completes.
  }
  finish_run(responses);
  return responses;
}

void BatchEngine::finish_run(std::span<const BatchResponse> responses) {
  if (!util::MetricsRegistry::enabled()) return;
  std::uint64_t failed = 0;
  for (const BatchResponse& r : responses) {
    if (!r.ok) ++failed;
  }
  if (failed > 0) metrics_.failed.add(failed);
  structural_->export_metrics(util::MetricsRegistry::global());
}

}  // namespace autopower::serve

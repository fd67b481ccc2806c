// Tests for the batch serving subsystem (src/serve/): thread-pool
// lifecycle and graceful shutdown, model registry snapshots, eval-cache
// hit/miss behaviour and cross-thread consistency, batch-engine
// determinism against the serial predict loop, the design-space sweep
// driver (grid parsing/expansion, ranking, thread-count invariance,
// shared structural memo), and the JSONL wire format.
//
// This suite is built as its own binary so tools/check.sh can run it
// under the ThreadSanitizer preset in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "serve/eval_cache.hpp"
#include "serve/jsonl.hpp"
#include "serve/registry.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/structural_cache.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {
namespace {

// --- Shared trained model fixture -------------------------------------------

core::EvalContext make_context(const sim::PerfSimulator& sim,
                               const std::string& config,
                               const std::string& workload) {
  core::EvalContext ctx;
  ctx.cfg = &arch::boom_config(config);
  ctx.workload = workload;
  const auto& profile = workload::workload_by_name(workload);
  ctx.program = workload::program_features(profile);
  ctx.events = sim.simulate(*ctx.cfg, profile);
  return ctx;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::PerfSimulator sim;
    power::GoldenPowerModel golden;
    std::vector<core::EvalContext> train;
    for (const std::string config : {"C1", "C15"}) {
      for (const auto& w : workload::riscv_tests_workloads()) {
        train.push_back(make_context(sim, config, w.name));
      }
    }
    auto model = std::make_shared<core::AutoPowerModel>();
    model->train(train, golden);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(std::move(model));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static std::shared_ptr<const core::AutoPowerModel> model() {
    return *model_;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
};

std::shared_ptr<const core::AutoPowerModel>* ServeTest::model_ = nullptr;

// --- ModelRegistry -----------------------------------------------------------

class RegistryTest : public ServeTest {};

TEST_F(RegistryTest, CachesSnapshotsByPath) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "autopower_registry_test.ap")
                        .string();
  model()->save_to_file(path);

  ModelRegistry registry;
  const auto a = registry.get(path);
  const auto b = registry.get(path);
  EXPECT_EQ(a.get(), b.get());  // one snapshot, shared
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_TRUE(a->trained());

  // reload publishes a fresh snapshot; the old handle stays valid.
  const auto c = registry.reload(path);
  EXPECT_NE(a.get(), c.get());
  EXPECT_DOUBLE_EQ(a->predict_total(make_context(sim::PerfSimulator{}, "C8",
                                                 "dhrystone")),
                   c->predict_total(make_context(sim::PerfSimulator{}, "C8",
                                                 "dhrystone")));

  registry.erase(path);
  EXPECT_EQ(registry.size(), 0u);
  std::remove(path.c_str());
}

TEST_F(RegistryTest, MissingArchiveThrows) {
  ModelRegistry registry;
  EXPECT_THROW((void)registry.get("/nonexistent/model.ap"), util::Error);
}

TEST_F(RegistryTest, NamedSlotsBindReloadAndEnumerate) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "autopower_registry_slot_test.ap")
                        .string();
  model()->save_to_file(path);

  ModelRegistry registry;
  const auto a = registry.open("boom_a", path);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(registry.named("boom_a").get(), a.get());
  EXPECT_EQ(registry.path_of("boom_a"), path);
  EXPECT_EQ(registry.size(), 1u);

  // Re-opening the same binding is idempotent; rebinding to a different
  // archive is a configuration error, not a silent swap.
  EXPECT_EQ(registry.open("boom_a", path).get(), a.get());
  EXPECT_THROW((void)registry.open("boom_a", "/elsewhere/model.ap"),
               util::Error);

  // reload_named publishes a fresh snapshot under the same name; old
  // handles stay valid (RCU by shared_ptr).
  const auto b = registry.reload_named("boom_a");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(registry.named("boom_a").get(), b.get());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());  // same archive bytes

  EXPECT_EQ(registry.named("nope"), nullptr);
  EXPECT_THROW((void)registry.path_of("nope"), util::Error);
  EXPECT_THROW((void)registry.reload_named("nope"), util::Error);

  const auto names = registry.names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "boom_a");
  std::remove(path.c_str());
}

TEST_F(RegistryTest, PublishedSlotHasNoBackingArchive) {
  ModelRegistry registry;
  const auto handle = registry.publish("inline", model());
  EXPECT_EQ(handle.get(), model().get());
  EXPECT_EQ(registry.named("inline").get(), model().get());
  EXPECT_EQ(registry.path_of("inline"), "");
  EXPECT_EQ(registry.size(), 1u);
  // Nothing on disk to re-read: reload must refuse, and the published
  // snapshot must survive the refusal.
  EXPECT_THROW((void)registry.reload_named("inline"), util::Error);
  EXPECT_EQ(registry.named("inline").get(), model().get());
}

// --- EvalCache ---------------------------------------------------------------

constexpr std::string_view kFpA = "aaaaaaaaaaaaaaaa";
constexpr std::string_view kFpB = "bbbbbbbbbbbbbbbb";

TEST(EvalCacheTest, MissThenHitReturnsSameContext) {
  EvalCache cache(4);
  sim::PerfSimulator sim;
  const auto a = cache.get_or_compute(kFpA, "C3", "dhrystone", sim);
  const auto b = cache.get_or_compute(kFpA, "C3", "dhrystone", sim);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);

  (void)cache.get_or_compute(kFpA, "C4", "qsort", sim);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EvalCacheTest, DistinctModelFingerprintsNeverAlias) {
  // Regression for the stale-model serving bug: before fingerprints were
  // part of the key, two models sharing one cache would serve each
  // other's entries for the same (config, workload).
  EvalCache cache(8);
  sim::PerfSimulator sim;
  const auto a = cache.get_or_compute(kFpA, "C3", "dhrystone", sim);
  const auto b = cache.get_or_compute(kFpB, "C3", "dhrystone", sim);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  // Each fingerprint re-hits its own entry.
  EXPECT_EQ(cache.get_or_compute(kFpA, "C3", "dhrystone", sim).get(), a.get());
  EXPECT_EQ(cache.get_or_compute(kFpB, "C3", "dhrystone", sim).get(), b.get());
}

TEST(EvalCacheTest, CachedContextMatchesDirectComputation) {
  EvalCache cache;
  sim::PerfSimulator sim;
  const auto cached = cache.get_or_compute(kFpA, "C5", "towers", sim);
  const auto direct = make_context(sim, "C5", "towers");
  EXPECT_EQ(cached->cfg, direct.cfg);
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto kind = static_cast<arch::EventKind>(i);
    EXPECT_EQ(cached->events[kind], direct.events[kind]);
  }
}

TEST(EvalCacheTest, UnknownNamesThrow) {
  EvalCache cache;
  sim::PerfSimulator sim;
  EXPECT_THROW((void)cache.get_or_compute(kFpA, "C99", "dhrystone", sim),
               util::Error);
  EXPECT_THROW((void)cache.get_or_compute(kFpA, "C1", "nonsense", sim),
               util::Error);
}

TEST(EvalCacheTest, CrossThreadLookupsAgree) {
  EvalCache cache(8);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::EvalContext>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &seen, t] {
        sim::PerfSimulator sim;  // thread-private, as the contract requires
        seen[t] = cache.get_or_compute(kFpA, "C7", "spmv", sim);
      });
    }
    for (auto& th : threads) th.join();
  }
  // Every thread must observe the one published context, even if several
  // raced on the initial miss.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0].get(), seen[t].get());
  }
  EXPECT_EQ(cache.size(), 1u);
  // Exactly one lookup won the insert and counts as the miss; racing
  // losers adopted the published context and count as hits.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) - 1u);
}

// --- BatchEngine -------------------------------------------------------------

class EngineTest : public ServeTest {};

std::vector<BatchRequest> grid_requests(PredictMode mode) {
  std::vector<BatchRequest> requests;
  for (const auto& cfg : arch::boom_design_space()) {
    for (const std::string wl : {"dhrystone", "qsort", "towers", "spmv"}) {
      requests.push_back({cfg.name(), wl, mode});
    }
  }
  return requests;
}

TEST_F(EngineTest, ParallelRunMatchesSerialPredictLoopExactly) {
  const auto requests = grid_requests(PredictMode::kTotal);

  // The serial baseline: the plain predict loop the engine replaces.
  sim::PerfSimulator sim;
  std::vector<double> serial;
  serial.reserve(requests.size());
  for (const auto& r : requests) {
    serial.push_back(model()->predict_total(make_context(sim, r.config,
                                                         r.workload)));
  }

  BatchEngine engine(model(), {.threads = 8});
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(responses[i].index, i);
    EXPECT_EQ(responses[i].config, requests[i].config);
    EXPECT_EQ(responses[i].workload, requests[i].workload);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(responses[i].total_mw, serial[i]);
  }
}

TEST_F(EngineTest, ThreadCountDoesNotChangeResults) {
  const auto requests = grid_requests(PredictMode::kTotal);
  BatchEngine serial_engine(model(), {.threads = 1});
  BatchEngine parallel_engine(model(), {.threads = 8});
  const auto a = serial_engine.run(requests);
  const auto b = parallel_engine.run(requests);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_mw, b[i].total_mw);
  }
}

TEST_F(EngineTest, ConcurrentRunCallsStayBitIdentical) {
  // The multi-caller contract (engine.hpp): run() from several threads
  // at once — sharing the EvalCache, response memo, and structural cache
  // — must return exactly what a lone serial engine returns for each
  // call.  This is the daemon's world: many submitters, one engine.
  const auto requests = grid_requests(PredictMode::kTotal);
  BatchEngine reference(model(), {.threads = 1});
  const auto expected = reference.run(requests);

  BatchEngine shared(model(), {.threads = 4});
  constexpr int kCallers = 6;
  std::vector<std::vector<BatchResponse>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    // Distinct per-caller orders so concurrent calls interleave cache
    // fills instead of marching in lockstep.
    callers.emplace_back([&, c] {
      auto reqs = requests;
      std::rotate(reqs.begin(), reqs.begin() + (c * 7) % reqs.size(),
                  reqs.end());
      got[c] = shared.run(reqs);
    });
  }
  for (auto& t : callers) t.join();

  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), expected.size()) << "caller " << c;
    const std::size_t shift = (c * 7) % requests.size();
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      const auto& want = expected[(i + shift) % expected.size()];
      ASSERT_TRUE(got[c][i].ok) << got[c][i].error;
      EXPECT_EQ(got[c][i].config, want.config);
      EXPECT_EQ(got[c][i].total_mw, want.total_mw)
          << "caller " << c << " request " << i;
    }
  }
}

TEST_F(EngineTest, PerComponentAndTraceModes) {
  // Trace mode on a riscv-tests workload: same code path as the GEMM/SPMM
  // kernels at a fraction of the window count (keeps the tsan run fast).
  std::vector<BatchRequest> requests = {
      {"C8", "median", PredictMode::kPerComponent},
      {"C3", "qsort", PredictMode::kTrace},
  };
  BatchEngine engine(model(), {.threads = 2});
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);

  ASSERT_TRUE(responses[0].ok) << responses[0].error;
  ASSERT_EQ(responses[0].components.size(), arch::kNumComponents);
  sim::PerfSimulator sim;
  const auto direct = model()->predict(make_context(sim, "C8", "median"));
  EXPECT_EQ(responses[0].total_mw, direct.total());
  EXPECT_EQ(responses[0].components[0].clock_mw,
            direct.components[0].groups.clock);

  ASSERT_TRUE(responses[1].ok) << responses[1].error;
  EXPECT_GT(responses[1].trace_mw.size(), 100u);
  for (const double mw : responses[1].trace_mw) EXPECT_GT(mw, 0.0);
}

TEST_F(EngineTest, BadRequestFailsAloneNotTheBatch) {
  std::vector<BatchRequest> requests = {
      {"C1", "dhrystone", PredictMode::kTotal},
      {"C99", "dhrystone", PredictMode::kTotal},
      {"C2", "no_such_workload", PredictMode::kTotal},
      {"C2", "vvadd", PredictMode::kTotal},
  };
  BatchEngine engine(model(), {.threads = 4});
  const auto responses = engine.run(requests);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_NE(responses[1].error.find("C99"), std::string::npos);
  EXPECT_FALSE(responses[2].ok);
  EXPECT_TRUE(responses[3].ok);
}

#if defined(AUTOPOWER_FAULT_INJECTION)
TEST_F(EngineTest, FaultedDrainKeepsSiblingResultsBitIdentical) {
  // A request lost to an exception mid-drain must not hang run() (the
  // old in-task latch would strand forever), must fail alone, and must
  // leave every sibling response bit-identical to a fault-free run.
  const std::vector<BatchRequest> requests = {
      {"C1", "dhrystone", PredictMode::kTotal},
      {"C3", "qsort", PredictMode::kTotal},
      {"C5", "median", PredictMode::kPerComponent},
      {"C7", "towers", PredictMode::kTotal},
      {"C9", "rsort", PredictMode::kTotal},
      {"C11", "vvadd", PredictMode::kTotal},
  };
  BatchEngine clean_engine(model(), {.threads = 3,
                                     .memoize_responses = false});
  const auto expected = clean_engine.run(requests);

  BatchEngine engine(model(), {.threads = 3, .memoize_responses = false});
  std::vector<BatchResponse> faulted;
  {
    util::fault::ScopedFault armed("serve.engine.handle",
                                   util::fault::Trigger::countdown(1));
    faulted = engine.run(requests);  // must return, not hang
  }
  ASSERT_EQ(faulted.size(), requests.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(faulted[i].index, i);
    if (!faulted[i].ok) {
      ++failed;
      EXPECT_NE(faulted[i].error.find("injected fault"), std::string::npos)
          << faulted[i].error;
      continue;
    }
    ASSERT_TRUE(expected[i].ok);
    EXPECT_EQ(faulted[i].total_mw, expected[i].total_mw);
    ASSERT_EQ(faulted[i].components.size(), expected[i].components.size());
    for (std::size_t j = 0; j < faulted[i].components.size(); ++j) {
      EXPECT_EQ(faulted[i].components[j].total_mw,
                expected[i].components[j].total_mw);
    }
  }
  EXPECT_EQ(failed, 1u);

  // Disarmed, the same engine completes the whole batch, bit-identical.
  const auto recovered = engine.run(requests);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_TRUE(recovered[i].ok) << recovered[i].error;
    EXPECT_EQ(recovered[i].total_mw, expected[i].total_mw);
  }
}
#endif  // AUTOPOWER_FAULT_INJECTION

TEST_F(EngineTest, CachesDeduplicateRepeatedRequests) {
  std::vector<BatchRequest> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back({"C6", "rsort", PredictMode::kTotal});
  }
  BatchEngine engine(model(), {.threads = 4});
  const auto responses = engine.run(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok);
    EXPECT_EQ(responses[i].index, i);
    EXPECT_EQ(responses[i].total_mw, responses[0].total_mw);
  }
  // Response memo: one entry was created, so exactly one miss — racing
  // duplicate computations lose the insert and count as hits.
  const auto rs = engine.response_stats();
  EXPECT_EQ(rs.misses, 1u);
  EXPECT_EQ(rs.hits, 39u);
  // Eval cache: one entry, one winning insert, one miss.
  EXPECT_EQ(engine.cache().size(), 1u);
  EXPECT_EQ(engine.cache().stats().misses, 1u);
}

TEST_F(EngineTest, RunPopulatesGlobalMetrics) {
  // The engine records into the process-wide registry; other tests (and
  // the fixture) record too, so assert on deltas, not absolute values.
  auto& registry = util::MetricsRegistry::global();
  const auto requests_before = registry.counter("serve.batch.requests").value();
  const auto latency_before =
      registry.histogram("serve.batch.request_latency_ns").count();
  const auto memo_hits_before =
      registry.counter("serve.batch.response_memo.hits").value();
  const auto memo_misses_before =
      registry.counter("serve.batch.response_memo.misses").value();

  std::vector<BatchRequest> requests(
      12, BatchRequest{"C5", "median", PredictMode::kTotal});
  BatchEngine engine(model(), {.threads = 3});
  const auto responses = engine.run(requests);
  for (const auto& r : responses) ASSERT_TRUE(r.ok);

  EXPECT_EQ(registry.counter("serve.batch.requests").value(),
            requests_before + 12u);
  EXPECT_EQ(registry.histogram("serve.batch.request_latency_ns").count(),
            latency_before + 12u);
  // Registry memo counters mirror the engine's own stats exactly.
  const auto rs = engine.response_stats();
  EXPECT_EQ(registry.counter("serve.batch.response_memo.hits").value(),
            memo_hits_before + rs.hits);
  EXPECT_EQ(registry.counter("serve.batch.response_memo.misses").value(),
            memo_misses_before + rs.misses);
  EXPECT_EQ(rs.hits + rs.misses, 12u);
}

TEST_F(EngineTest, MemoDisabledStillDeterministic) {
  std::vector<BatchRequest> requests(
      20, BatchRequest{"C9", "multiply", PredictMode::kTotal});
  BatchEngine memo_on(model(), {.threads = 4});
  BatchEngine memo_off(model(),
                       {.threads = 4, .memoize_responses = false});
  const auto a = memo_on.run(requests);
  const auto b = memo_off.run(requests);
  EXPECT_EQ(memo_off.response_stats().hits, 0u);
  EXPECT_EQ(memo_off.response_stats().misses, 0u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(a[i].total_mw, b[i].total_mw);
  }
}

TEST_F(EngineTest, EmptyBatchAndNullModel) {
  BatchEngine engine(model(), {.threads = 2});
  EXPECT_TRUE(engine.run({}).empty());
  EXPECT_THROW(BatchEngine(nullptr, {}), util::Error);
}

/// A deliberately different model (tiny GBT ensembles, narrow training
/// set) whose predictions diverge from ServeTest::model() everywhere.
std::shared_ptr<const core::AutoPowerModel> variant_model() {
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  std::vector<core::EvalContext> train;
  for (const std::string config : {"C1", "C15"}) {
    for (const char* w : {"dhrystone", "qsort"}) {
      train.push_back(make_context(sim, config, w));
    }
  }
  core::AutoPowerOptions options;
  options.clock.gbt.num_rounds = 3;
  options.clock.gbt.tree.max_depth = 2;
  options.sram.gbt.num_rounds = 3;
  options.sram.gbt.tree.max_depth = 2;
  options.logic.gbt.num_rounds = 3;
  options.logic.gbt.tree.max_depth = 2;
  auto variant = std::make_shared<core::AutoPowerModel>(options);
  variant->train(train, golden, 1);
  return variant;
}

TEST_F(EngineTest, HotSwapNeverServesStaleMemoEntries) {
  // THE stale-model regression: every memo key (response memo and
  // EvalCache) carries the model's archive fingerprint, so after
  // swap_model() a repeated request must be recomputed under the new
  // snapshot — under fingerprint-less keys this test fails by serving
  // the OLD model's memoized responses bit-for-bit.
  const auto other = variant_model();
  ASSERT_NE(other->fingerprint(), model()->fingerprint());

  std::vector<BatchRequest> requests = {
      {"C3", "dhrystone", PredictMode::kTotal},
      {"C8", "qsort", PredictMode::kTotal},
      {"C8", "median", PredictMode::kPerComponent},
  };
  BatchEngine original(model(), {.threads = 2});
  BatchEngine fresh_other(other, {.threads = 2});
  const auto before = original.run(requests);   // warms both memo layers
  const auto want_other = fresh_other.run(requests);

  BatchEngine swapped(model(), {.threads = 2});
  EXPECT_EQ(swapped.model_fingerprint(), model()->fingerprint());
  const auto warm = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(warm[i].ok) << warm[i].error;
    EXPECT_EQ(warm[i].total_mw, before[i].total_mw);
  }

  swapped.swap_model(other);
  EXPECT_EQ(swapped.model(), other);
  EXPECT_EQ(swapped.model_fingerprint(), other->fingerprint());
  const auto after = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(after[i].ok) << after[i].error;
    EXPECT_EQ(after[i].total_mw, want_other[i].total_mw) << "request " << i;
    EXPECT_NE(after[i].total_mw, before[i].total_mw) << "request " << i;
  }

  // Swapping BACK re-hits the original model's still-keyed entries: the
  // old memo was never invalidated, merely de-routed — so A→B→A serves
  // A's answers again without recomputation.
  const auto hits_before = swapped.response_stats().hits;
  swapped.swap_model(model());
  const auto back = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(back[i].total_mw, before[i].total_mw);
  }
  EXPECT_EQ(swapped.response_stats().hits, hits_before + requests.size());
}

TEST_F(EngineTest, TraceModeSharesStructuralCacheAcrossWorkers) {
  // C11 and C12 share every structural parameter (branch count, issue
  // width, cache ways, TLB entries, fetch bytes) and differ only in window
  // parameters, so the second config's trace can only avoid re-running the
  // structural simulations through the engine's shared StructuralSimCache
  // — each worker's private instance memo keys on the whole config.
  std::vector<BatchRequest> requests;
  for (const char* w : {"median", "qsort", "towers", "vvadd"}) {
    requests.push_back({"C11", w, PredictMode::kTrace});
    requests.push_back({"C12", w, PredictMode::kTrace});
  }
  BatchEngine parallel_engine(model(), {.threads = 8,
                                        .memoize_responses = false});
  const auto parallel = parallel_engine.run(requests);
  EXPECT_GT(parallel_engine.structural_cache()->stats().hits, 0u);

  BatchEngine serial_engine(model(), {.threads = 1,
                                      .memoize_responses = false});
  const auto serial = serial_engine.run(requests);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ASSERT_EQ(parallel[i].trace_mw.size(), serial[i].trace_mw.size());
    for (std::size_t t = 0; t < parallel[i].trace_mw.size(); ++t) {
      EXPECT_EQ(parallel[i].trace_mw[t], serial[i].trace_mw[t]);
    }
  }
}

// --- Design-space sweep ------------------------------------------------------

TEST(SweepGridTest, ParseGridReadsAxesInOrder) {
  const auto axes = parse_grid("RobEntry=64,96,128;FetchWidth=4,8");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].param, arch::HwParam::kRobEntry);
  EXPECT_EQ(axes[0].values, (std::vector<int>{64, 96, 128}));
  EXPECT_EQ(axes[1].param, arch::HwParam::kFetchWidth);
  EXPECT_EQ(axes[1].values, (std::vector<int>{4, 8}));
}

TEST(SweepGridTest, ParseGridRejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_grid(""), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry"), util::Error);          // no '='
  EXPECT_THROW((void)parse_grid("NoSuchParam=1"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=64;RobEntry=96"),
               util::Error);                                        // duplicate
  EXPECT_THROW((void)parse_grid("RobEntry="), util::Error);         // no values
  EXPECT_THROW((void)parse_grid("RobEntry=64,-2"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=sixty"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=0"), util::Error);        // < 1
}

TEST(SweepGridTest, ExpandGridEnumeratesCartesianProduct) {
  const auto& base = arch::boom_config("C8");
  const auto axes = parse_grid("RobEntry=64,96;MshrEntry=2,4,8");
  const GridCursor cursor(base, axes);
  ASSERT_EQ(cursor.size(), 6u);
  std::vector<arch::HardwareConfig> configs;
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    configs.push_back(cursor.config_at(i));
  }
  // First axis slowest, so the first three share RobEntry=64.
  EXPECT_EQ(configs[0].name(), base.name() + "+RobEntry=64+MshrEntry=2");
  EXPECT_EQ(configs[1].value(arch::HwParam::kMshrEntry), 4);
  EXPECT_EQ(configs[3].value(arch::HwParam::kRobEntry), 96);
  for (const auto& cfg : configs) {
    // Off-axis parameters are inherited from the base untouched.
    EXPECT_EQ(cfg.value(arch::HwParam::kFetchWidth),
              base.value(arch::HwParam::kFetchWidth));
    EXPECT_EQ(cfg.value(arch::HwParam::kCacheWay),
              base.value(arch::HwParam::kCacheWay));
  }
  // No axes: the grid is just the base configuration.
  EXPECT_EQ(GridCursor(base, {}).size(), 1u);
}

class SweepTest : public ServeTest {};

TEST_F(SweepTest, RanksRowsByMetricAndAggregatesCells) {
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96,128");
  spec.workloads = {"dhrystone", "qsort"};
  const auto report = run_sweep(*model(), spec);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.configs, 3u);
  EXPECT_EQ(report.evaluations, 6u);
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const auto& row = report.rows[i];
    EXPECT_EQ(row.rank, i + 1);
    ASSERT_EQ(row.cells.size(), 2u);
    for (const auto& cell : row.cells) {
      ASSERT_TRUE(cell.ok) << cell.error;
      EXPECT_GT(cell.total_mw, 0.0);
      EXPECT_GT(cell.ipc, 0.0);
    }
    EXPECT_EQ(row.mean_total_mw,
              (row.cells[0].total_mw + row.cells[1].total_mw) / 2.0);
    if (i > 0) {
      EXPECT_GE(report.rows[i - 1].ipc_per_watt, row.ipc_per_watt);
    }
  }
  // The sweep reuses every structural measurement after the first config.
  EXPECT_EQ(report.structural.misses, 10u);  // 2 workloads x 5 sub-sims
  EXPECT_EQ(report.structural.hits, 20u);
}

TEST_F(SweepTest, ThreadCountDoesNotChangeReport) {
  SweepSpec spec;
  spec.base = "C4";
  spec.axes = parse_grid("RobEntry=64,96;FetchBufferEntry=16,32;"
                         "LdqStqEntry=16,24");
  spec.workloads = {"dhrystone", "towers"};

  spec.threads = 1;
  const auto serial = run_sweep(*model(), spec);
  spec.threads = 8;
  const auto parallel = run_sweep(*model(), spec);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].config, parallel.rows[i].config);
    EXPECT_EQ(serial.rows[i].mean_total_mw, parallel.rows[i].mean_total_mw);
    EXPECT_EQ(serial.rows[i].ipc_per_watt, parallel.rows[i].ipc_per_watt);
  }
  // The serialised reports are byte-identical.
  std::ostringstream a, b;
  write_sweep_report(a, serial);
  write_sweep_report(b, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST_F(SweepTest, BadGridPointFailsAloneAndRanksLast) {
  SweepSpec spec;
  spec.base = "C8";
  // ICacheFetchBytes=3 breaks the power-of-two cache-set constraint for
  // that one configuration; the other grid points must be unaffected.
  spec.axes = parse_grid("ICacheFetchBytes=2,3,4");
  spec.workloads = {"dhrystone"};
  const auto report = run_sweep(*model(), spec);
  ASSERT_EQ(report.rows.size(), 3u);
  std::size_t failed = 0;
  for (const auto& row : report.rows) {
    for (const auto& cell : row.cells) {
      if (!cell.ok) {
        ++failed;
        EXPECT_FALSE(cell.error.empty());
      }
    }
  }
  EXPECT_EQ(failed, 1u);
  // The all-failed row carries no score and sorts last.
  const auto& last = report.rows.back();
  EXPECT_FALSE(last.cells[0].ok);
  EXPECT_EQ(last.config.value(arch::HwParam::kICacheFetchBytes), 3);

  // The metric and top knobs survive the round trip through strings.
  EXPECT_EQ(sweep_metric_from_string("power"), SweepMetric::kPower);
  EXPECT_THROW((void)sweep_metric_from_string("bogus"), util::Error);
  spec.top = 1;
  spec.metric = SweepMetric::kPower;
  EXPECT_EQ(run_sweep(*model(), spec).rows.size(), 1u);
}

TEST_F(SweepTest, ConcurrentSweepsShareOneStructuralCache) {
  // Two sweeps over overlapping grids run concurrently against ONE shared
  // structural cache — the arrangement tools/check.sh exercises under
  // ThreadSanitizer.  Each sweep itself is multi-threaded, so cache fills
  // race with lookups both within and across the sweeps.
  auto shared = std::make_shared<util::StructuralSimCache>();
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96,128;MshrEntry=2,4");
  spec.workloads = {"dhrystone", "qsort"};
  spec.threads = 4;

  SweepReport first, second;
  std::thread a([&] { first = run_sweep(*model(), spec, shared); });
  std::thread b([&] { second = run_sweep(*model(), spec, shared); });
  a.join();
  b.join();

  std::ostringstream sa, sb;
  write_sweep_report(sa, first);
  write_sweep_report(sb, second);
  EXPECT_EQ(sa.str(), sb.str());
  // Every simulate() makes exactly 5 structural lookups (one per sub-sim),
  // and the grid varies only non-structural parameters, so the 2 sweeps
  // x 12 evaluations make 120 lookups over 10 distinct keys.  Only the
  // winning insert per key counts as a miss — racing first-fills lose the
  // insert and count as hits — so the stats are exact: misses == entries.
  const auto stats = shared->stats();
  EXPECT_EQ(stats.hits + stats.misses, 120u);
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.hits, 110u);
  EXPECT_EQ(shared->size(), 10u);
}

TEST_F(SweepTest, SweepPopulatesGlobalMetrics) {
  auto& registry = util::MetricsRegistry::global();
  const auto cells_before = registry.counter("serve.sweep.cells").value();
  const auto latency_before =
      registry.histogram("serve.sweep.cell_latency_ns").count();

  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96");
  spec.workloads = {"dhrystone", "qsort"};
  spec.threads = 2;
  const auto report = run_sweep(*model(), spec);

  EXPECT_EQ(report.evaluations, 4u);
  EXPECT_EQ(registry.counter("serve.sweep.cells").value(), cells_before + 4u);
  EXPECT_EQ(registry.histogram("serve.sweep.cell_latency_ns").count(),
            latency_before + 4u);
  EXPECT_GT(registry.gauge("serve.sweep.cells_per_sec").value(), 0.0);
}

// --- JSONL -------------------------------------------------------------------

TEST(JsonlTest, ParsesRequestsWithAndWithoutMode) {
  const auto a = request_from_jsonl(
      R"({"config": "C3", "workload": "dhrystone"})");
  EXPECT_EQ(a.config, "C3");
  EXPECT_EQ(a.workload, "dhrystone");
  EXPECT_EQ(a.mode, PredictMode::kTotal);

  const auto b = request_from_jsonl(
      R"({"mode": "per_component", "workload": "gemm", "config": "C8"})");
  EXPECT_EQ(b.mode, PredictMode::kPerComponent);

  const auto c =
      request_from_jsonl(R"({"config":"C1","workload":"spmv","mode":"trace"})");
  EXPECT_EQ(c.mode, PredictMode::kTrace);
}

TEST(JsonlTest, RejectsMalformedRequests) {
  EXPECT_THROW((void)request_from_jsonl(R"({"workload": "gemm"})"),
               util::Error);  // missing config
  EXPECT_THROW((void)request_from_jsonl(R"({"config": "C1"})"),
               util::Error);  // missing workload
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "workload": "gemm", "x": 1})"),
               util::Error);  // unknown key
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "workload": "gemm", "mode": "bogus"})"),
               util::Error);  // unknown mode
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": 3, "workload": "gemm"})"),
               util::Error);  // wrong type
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "config": "C2", "workload": "g"})"),
               util::Error);  // duplicate key
  EXPECT_THROW((void)request_from_jsonl("not json"), util::Error);
  EXPECT_THROW((void)request_from_jsonl(R"({"config": "C1"} trailing)"),
               util::Error);
}

TEST(JsonlTest, ResponseSerialisationRoundTripsExactly) {
  BatchResponse resp;
  resp.index = 7;
  resp.config = "C3";
  resp.workload = "dhry\"stone";  // exercises escaping
  resp.mode = PredictMode::kTrace;
  resp.ok = true;
  resp.total_mw = 71.48132360793859;
  resp.trace_mw = {1.0 / 3.0, 38.088830629505615, 1e-12};

  const std::string line = response_to_jsonl(resp);
  const JsonValue doc = JsonValue::parse(line);
  EXPECT_EQ(doc.find("index")->as_number(), 7.0);
  EXPECT_EQ(doc.find("config")->as_string(), "C3");
  EXPECT_EQ(doc.find("workload")->as_string(), "dhry\"stone");
  EXPECT_EQ(doc.find("mode")->as_string(), "trace");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  // Numbers must survive the wire bit-for-bit.
  EXPECT_EQ(doc.find("total_mw")->as_number(), resp.total_mw);
  const auto& trace = doc.find("trace_mw")->as_array();
  ASSERT_EQ(trace.size(), 3u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].as_number(), resp.trace_mw[i]);
  }
}

TEST(JsonlTest, ErrorResponseCarriesMessage) {
  BatchResponse resp;
  resp.index = 0;
  resp.config = "C99";
  resp.workload = "gemm";
  resp.ok = false;
  resp.error = "unknown BOOM configuration: C99";
  const JsonValue doc = JsonValue::parse(response_to_jsonl(resp));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->as_string(), resp.error);
  EXPECT_EQ(doc.find("total_mw"), nullptr);
}

TEST(JsonlTest, ReadRequestsSkipsBlankLinesAndReportsLineNumbers) {
  std::istringstream in(
      "{\"config\": \"C1\", \"workload\": \"vvadd\"}\n"
      "\n"
      "   \n"
      "{\"config\": \"C2\", \"workload\": \"median\", \"mode\": \"total\"}\n");
  const auto requests = read_requests(in);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[1].config, "C2");

  std::istringstream bad("{\"config\": \"C1\", \"workload\": \"vvadd\"}\n"
                         "{broken\n");
  try {
    (void)read_requests(bad);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonlTest, JsonValueParsesNestedStructures) {
  const auto doc = JsonValue::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": null, "d": false}, "e": "A"})");
  EXPECT_EQ(doc.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(doc.find("b")->find("c")->is_null());
  EXPECT_FALSE(doc.find("b")->find("d")->as_bool());
  EXPECT_EQ(doc.find("e")->as_string(), "A");
}

}  // namespace
}  // namespace autopower::serve

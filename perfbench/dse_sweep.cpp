// dse_sweep: an architect sweeps a grid, then searches a larger one.
//
//   setup    dataset for the known configs, k=2 model (C1, C15)
//   stage a  serve::run_sweep on base C8 over a fixed-shape grid that
//            mixes window axes (memo hits, predict-bound cells) with
//            structural axes (memo misses, simulator-bound cells), all
//            eight evaluation workloads, top 16, fresh structural cache
//            per repetition
//   stage b  explore::run_explore over a 10^5-config grid with fixed
//            seed, population and generations
//
// The seed permutes each sweep axis's value order (same cells, different
// traversal) and picks the rows the checks sample; it never changes the
// amount of work.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "explore/explore.hpp"
#include "power/golden.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/structural_cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace autopower;

// FNV-1a 64 digests of the report bytes, recorded from the repository's
// implementation.  The sweep report is the same for every seed (the seed
// only reorders axis values).
constexpr const char* kSweepDigest = "1d9271a7fa08771b";
constexpr const char* kFrontierDigest = "34329a3369039a9b";
constexpr std::uint64_t kExploreSeed = 1;

constexpr std::size_t kRoundsPerMinute = 42;  ///< set-up + sweep + search
constexpr std::size_t kSampleRows = 4;  ///< evaluate_configs spot check
constexpr std::size_t kReplayRows = 8;  ///< traced cell-by-cell replay
constexpr std::size_t kScoreSample = 64;

std::vector<std::string> evaluation_workloads() {
  std::vector<std::string> names;
  for (const auto& w : workload::riscv_tests_workloads()) names.push_back(w.name);
  return names;
}

std::vector<serve::SweepAxis> sweep_axes(util::Rng& rng) {
  using arch::HwParam;
  std::vector<serve::SweepAxis> axes = {
      {HwParam::kRobEntry, {64, 80, 96, 112, 128}},
      {HwParam::kDecodeWidth, {2, 3, 4, 5}},
      {HwParam::kCacheWay, {2, 4, 8}},
      {HwParam::kTlbEntry, {8, 16, 32}},
      {HwParam::kBranchCount, {12, 20}},
  };
  for (auto& axis : axes) shuffle(axis.values, rng);
  return axes;
}

std::vector<serve::SweepAxis> explore_axes() {
  using arch::HwParam;
  const struct {
    HwParam param;
    int first, step;
  } pools[] = {
      {HwParam::kRobEntry, 32, 16},       {HwParam::kFetchBufferEntry, 8, 4},
      {HwParam::kLdqStqEntry, 8, 4},      {HwParam::kIntPhyRegister, 48, 8},
      {HwParam::kFpPhyRegister, 48, 8},
  };
  std::vector<serve::SweepAxis> axes;
  for (const auto& pool : pools) {
    serve::SweepAxis axis{pool.param, {}};
    for (int i = 0; i < 10; ++i) axis.values.push_back(pool.first + i * pool.step);
    axes.push_back(std::move(axis));
  }
  return axes;
}

std::shared_ptr<const core::AutoPowerModel> setup_model(Tracer& tracer,
                                                        std::size_t threads) {
  auto span = tracer.span("setup");
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  exp::ExperimentData data;
  {
    auto s = tracer.span("exp.dataset_build");
    data = exp::ExperimentData::build(sim, golden);
  }
  auto model = std::make_shared<core::AutoPowerModel>();
  const std::vector<std::string> known = {"C1", "C15"};
  {
    auto s = tracer.span("core.train");
    model->train(data.contexts_of(known), golden, threads);
  }
  return model;
}

std::string row_bytes(const serve::SweepRow& row) {
  std::string out;
  serve::append_row_json(out, row);
  return out;
}

struct SweepRun {
  serve::SweepReport report;
  std::string bytes;
  double seconds = 0.0;
  RegistrySnapshot metrics;  ///< registry delta over the run
  std::shared_ptr<util::StructuralSimCache> cache;
};

SweepRun sweep_once(const core::AutoPowerModel& model,
                    const serve::SweepSpec& spec, Tracer& tracer) {
  SweepRun run;
  run.cache = std::make_shared<util::StructuralSimCache>();
  const auto before = RegistrySnapshot::global();
  const auto start = Clock::now();
  {
    auto s = tracer.span("serve.sweep.run_sweep");
    run.report = serve::run_sweep(model, spec, run.cache);
    s.set_items(run.report.evaluations);
  }
  run.seconds = seconds_since(start);
  run.metrics = delta(before, RegistrySnapshot::global());
  std::ostringstream os;
  serve::write_sweep_report(os, run.report);
  run.bytes = os.str();
  return run;
}

struct ExploreRun {
  explore::ExploreReport report;
  std::string bytes;  ///< frontier JSONL
  double seconds = 0.0;
  RegistrySnapshot metrics;  ///< registry delta over the run
};

ExploreRun explore_once(const core::AutoPowerModel& model,
                        const explore::ExploreSpec& spec, Tracer& tracer) {
  ExploreRun run;
  const auto before = RegistrySnapshot::global();
  const auto start = Clock::now();
  {
    auto s = tracer.span("explore.run_explore");
    run.report = explore::run_explore(model, spec,
                                      std::make_shared<util::StructuralSimCache>());
    s.set_items(run.report.generations_run);
  }
  run.seconds = seconds_since(start);
  run.metrics = delta(before, RegistrySnapshot::global());
  std::ostringstream os;
  explore::write_frontier(os, run.report);
  run.bytes = os.str();
  return run;
}

/// Replays a seeded sample of report rows cell by cell through the
/// public calls the sweep composes, on one simulator over a fresh shared
/// structural cache, and checks every cell's bits against the report.
void replay_cells(const core::AutoPowerModel& model,
                  const serve::SweepSpec& spec,
                  const serve::SweepReport& report, util::Rng& rng,
                  Tracer& tracer, RunResult& result) {
  const serve::GridCursor cursor(arch::boom_config(spec.base), spec.axes);
  const sim::PerfSimulator sim(sim::SimOptions{},
                               std::make_shared<util::StructuralSimCache>());
  std::size_t mismatches = 0;
  for (const std::size_t i : sample_indices(report.rows.size(), kReplayRows, rng)) {
    const serve::SweepRow& row = report.rows[i];
    for (std::size_t j = 0; j < spec.workloads.size(); ++j) {
      const auto& profile = workload::workload_by_name(spec.workloads[j]);
      auto cell = tracer.span("replay.cell");
      std::array<int, arch::kNumHwParams> values{};
      std::string name;
      {
        auto s = tracer.span("serve.sweep.values_at");
        cursor.values_at(row.index, values);
        cursor.format_name(row.index, name);
      }
      const arch::HardwareConfig cfg(std::move(name), values);
      arch::EventVector events;
      {
        auto s = tracer.span("sim.simulate");
        events = sim.simulate(cfg, profile);
      }
      core::EvalContext ctx;
      {
        auto s = tracer.span("core.context");
        ctx.cfg = &cfg;
        ctx.workload = profile.name;
        ctx.program = workload::program_features(profile);
        ctx.events = events;
      }
      double total_mw = 0.0;
      {
        auto s = tracer.span("core.predict_total");
        total_mw = model.predict_total(ctx);
      }
      const serve::SweepCell& want = row.cells[j];
      if (total_mw != want.total_mw ||
          events.rate(arch::EventKind::kInstructions) != want.ipc) {
        ++mismatches;
      }
    }
  }
  result.check(mismatches == 0, "replayed cells differ from the sweep report: " +
                                    std::to_string(mismatches));
}

/// Replays explore's scoring path (closed-form proxy events, then one
/// batched predict) on a seeded sample of grid configs.
void replay_scoring(const core::AutoPowerModel& model,
                    const explore::ExploreSpec& spec, util::Rng& rng,
                    Tracer& tracer) {
  const serve::GridCursor cursor(arch::boom_config(spec.base), spec.axes);
  std::vector<arch::HardwareConfig> configs;
  for (const std::size_t index : sample_indices(cursor.size(), kScoreSample, rng)) {
    configs.push_back(cursor.config_at(index));
  }
  auto score = tracer.span("explore.score", configs.size());
  std::vector<core::EvalContext> ctxs;
  {
    auto s = tracer.span("explore.proxy_events", configs.size());
    for (const auto& cfg : configs) {
      for (const auto& name : spec.workloads) {
        const auto& profile = workload::workload_by_name(name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = name;
        ctx.program = workload::program_features(profile);
        ctx.events = explore::proxy_events(cfg, profile);
        ctxs.push_back(std::move(ctx));
      }
    }
  }
  auto s = tracer.span("core.predict_total_batch", ctxs.size());
  const auto totals = model.predict_total_batch(ctxs);
  (void)totals;
}

/// Re-verifies one frontier through serve::evaluate_configs and checks
/// the rows' bytes.
void replay_verify(const core::AutoPowerModel& model,
                   const explore::ExploreSpec& spec,
                   const explore::ExploreReport& report, std::size_t threads,
                   Tracer& tracer, RunResult& result) {
  std::vector<arch::HardwareConfig> configs;
  for (const auto& member : report.frontier) configs.push_back(member.row.config);
  std::vector<serve::SweepRow> rows;
  {
    auto s = tracer.span("explore.verify", configs.size() * spec.workloads.size());
    rows = serve::evaluate_configs(model, configs, spec.workloads, threads,
                                   std::make_shared<util::StructuralSimCache>());
  }
  bool same = rows.size() == report.frontier.size();
  for (std::size_t i = 0; same && i < rows.size(); ++i) {
    same = row_bytes(rows[i]) == row_bytes(report.frontier[i].row);
  }
  result.check(same, "re-verified frontier rows differ from explore's rows");
}

}  // namespace

void run_dse_sweep(const Options& opts, Tracer& tracer, RunResult& result) {
  const std::size_t threads = worker_threads();
  util::Rng rng(util::hash_combine(opts.seed, util::hash_str("dse_sweep")));
  Tracer off(false);

  serve::SweepSpec spec;
  spec.base = "C8";
  spec.axes = sweep_axes(rng);
  spec.workloads = evaluation_workloads();
  spec.threads = threads;
  spec.metric = serve::SweepMetric::kIpcPerWatt;
  spec.top = 16;

  explore::ExploreSpec espec;
  espec.base = "C8";
  espec.axes = explore_axes();
  espec.workloads = evaluation_workloads();
  espec.threads = threads;
  espec.seed = kExploreSeed;
  espec.population = 64;
  espec.generations = 20;
  espec.verify_top = 8;

  // Every round runs the set-up, the sweep and the search once, so all
  // three medians sample the host across the whole run.  Round 0 is a
  // warm-up: its outputs are checked like every other round's, but its
  // times and peak are not recorded.  The previous round's model, report
  // and frontier are released before the peak RSS is reset, so every
  // round's peak covers the same work; only the first round's bytes are
  // kept, for the repetition check.
  std::vector<double> setup_times, sweep_times, explore_times, rss;
  std::shared_ptr<const core::AutoPowerModel> model;
  SweepRun sweep;
  ExploreRun explored;
  std::string first_sweep_bytes, first_frontier_bytes;
  double cells = 0.0, cells_failed = 0.0, candidates = 0.0, verified = 0.0,
         verify_failed = 0.0;
  const std::size_t rounds = reps_for(opts, kRoundsPerMinute);
  for (std::size_t r = 0; r <= rounds; ++r) {
    model.reset();
    sweep = SweepRun{};
    explored = ExploreRun{};
    release_free_memory();
    reset_peak_rss();
    const auto start = Clock::now();
    model = setup_model(off, threads);
    const double setup_s = seconds_since(start);

    SweepRun run = sweep_once(*model, spec, off);
    const double sweep_s = run.seconds;
    cells += run.metrics.counter("serve.sweep.cells");
    cells_failed += run.metrics.counter("serve.sweep.cells_failed");
    if (r == 0) first_sweep_bytes = run.bytes;
    result.check(run.bytes == first_sweep_bytes,
                 "sweep report bytes differ between repetitions");
    sweep = std::move(run);

    ExploreRun search = explore_once(*model, espec, off);
    candidates += static_cast<double>(search.report.candidates_scored);
    verified += search.metrics.counter("serve.sweep.cells");
    verify_failed += search.metrics.counter("serve.sweep.cells_failed");
    if (r == 0) first_frontier_bytes = search.bytes;
    result.check(search.bytes == first_frontier_bytes,
                 "explore frontier bytes differ between repetitions");
    if (r > 0) {
      setup_times.push_back(setup_s);
      sweep_times.push_back(sweep_s);
      explore_times.push_back(search.seconds);
      rss.push_back(peak_rss_mib());
    }
    explored = std::move(search);
  }

  const std::string sweep_digest = hex64(fnv1a(sweep.bytes));
  result.digests["sweep.report"] = sweep_digest;
  result.check(sweep_digest == kSweepDigest,
               "sweep report digest is " + sweep_digest);
  result.check(sweep.report.rows.size() == spec.top, "sweep report is short");
  const std::string frontier_digest = hex64(fnv1a(explored.bytes));
  result.digests["explore.frontier"] = frontier_digest;
  result.check(frontier_digest == kFrontierDigest,
               "explore frontier digest is " + frontier_digest);
  result.add_phase("sweep.cells", static_cast<std::uint64_t>(cells),
                   static_cast<std::uint64_t>(cells_failed));
  result.add_phase("explore.candidates", static_cast<std::uint64_t>(candidates), 0);
  result.add_phase("explore.verify.cells", static_cast<std::uint64_t>(verified),
                   static_cast<std::uint64_t>(verify_failed));

  // Spot check: a seeded sample of the streamed rows equals
  // serve::evaluate_configs on the same configurations.
  {
    std::vector<arch::HardwareConfig> configs;
    std::vector<const serve::SweepRow*> want;
    for (const std::size_t i :
         sample_indices(sweep.report.rows.size(), kSampleRows, rng)) {
      configs.push_back(sweep.report.rows[i].config);
      want.push_back(&sweep.report.rows[i]);
    }
    const auto rows = serve::evaluate_configs(*model, configs, spec.workloads,
                                              threads);
    bool same = rows.size() == want.size();
    for (std::size_t i = 0; same && i < rows.size(); ++i) {
      same = row_bytes(rows[i]) == row_bytes(*want[i]);
    }
    result.check(same, "evaluate_configs differs from the streamed rows");
  }

  result.samples["setup_s"] = setup_times;
  result.samples["stage_a_s"] = sweep_times;
  result.samples["stage_b_s"] = explore_times;
  result.samples["peak_rss_mib"] = rss;
  const double stage_a = median(sweep_times);
  const double stage_b = median(explore_times);
  result.end_to_end = {
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mib", median(rss), "MiB"},
      {"stage_a_s", stage_a, "s"},
      {"stage_b_s", stage_b, "s"},
  };
  result.figures = {
      {"sweep_cells_per_s",
       static_cast<double>(sweep.report.evaluations) / stage_a, "cells/s"},
      {"explore_s", stage_b, "s"},
      {"explore_best_ipc_per_watt",
       explored.report.frontier.empty()
           ? 0.0
           : explored.report.frontier.front().row.ipc_per_watt,
       "IPC/W"},
      {"explore_grid_configs",
       static_cast<double>(explored.report.grid_configs), "count"},
  };
  if (!tracer.enabled()) return;

  // ---- traced pass ------------------------------------------------------
  model = setup_model(tracer, threads);
  const SweepRun traced = sweep_once(*model, spec, tracer);
  const ExploreRun traced_explore = explore_once(*model, espec, tracer);
  replay_cells(*model, spec, traced.report, rng, tracer, result);
  replay_scoring(*model, espec, rng, tracer);
  replay_verify(*model, espec, traced_explore.report, threads, tracer, result);

  const auto& d = traced.metrics;
  const double traced_cells = d.counter("serve.sweep.cells");
  const auto l1 = traced.cache->l1_stats();
  util::StructuralSimCache::Stats l2;
  for (std::size_t i = 0; i < util::StructuralSimCache::kNumSubSims; ++i) {
    const auto lane =
        traced.cache->stats(static_cast<util::StructuralSimCache::SubSim>(i));
    l2.hits += lane.hits;
    l2.misses += lane.misses;
  }
  result.layers = {
      {"sim.simulate_us", tracer.per_call_us("sim.simulate"), "us"},
      {"sim.structural.l1_hit_ratio", l1.hit_rate(), "ratio"},
      {"sim.structural.l1_lookups", static_cast<double>(l1.hits + l1.misses),
       "count"},
      {"sim.structural.l2_hit_ratio", l2.hit_rate(), "ratio"},
      {"sim.structural.l2_lookups", static_cast<double>(l2.hits + l2.misses),
       "count"},
      {"core.context_us", tracer.per_call_us("core.context"), "us"},
      {"core.predict_total_us", tracer.per_call_us("core.predict_total"), "us"},
      {"core.predict_batch_us_per_row",
       tracer.per_item_us("core.predict_total_batch"), "us"},
      {"core.train_s", tracer.per_call_us("core.train") / 1e6, "s"},
      {"exp.dataset_build_s", tracer.per_call_us("exp.dataset_build") / 1e6, "s"},
      {"ml.gbt.predict_rows_per_cell",
       d.counter("ml.gbt.predict_rows") / std::max(1.0, traced_cells), "count"},
      {"serve.sweep.cell_us",
       d.hist_sum("serve.sweep.cell_latency_ns") / 1e3 /
           std::max(1.0, d.hist_count("serve.sweep.cell_latency_ns")),
       "us"},
      {"serve.sweep.chunks_stolen", d.counter("serve.sweep.chunks_stolen"),
       "count"},
      {"explore.generation_us", tracer.per_item_us("explore.run_explore"), "us"},
      {"explore.score_us_per_candidate", tracer.per_item_us("explore.score"),
       "us"},
      {"explore.verify_us_per_cell", tracer.per_item_us("explore.verify"), "us"},
      {"explore.candidates_scored",
       static_cast<double>(traced_explore.report.candidates_scored), "count"},
      {"explore.verified_cells", traced_explore.metrics.counter("serve.sweep.cells"),
       "count"},
  };
  const double untraced = stage_a + stage_b;
  const double traced_s = traced.seconds + traced_explore.seconds;
  result.layers.push_back(
      {"bench.trace_overhead_pct", 100.0 * (traced_s - untraced) / untraced, "%"});
}

}  // namespace perfbench

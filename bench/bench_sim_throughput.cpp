// Performance-simulator throughput: the structural-memo decomposition and
// the parallel sweep driver, each self-checked against the exact behaviour
// it replaces.
//
//   1. Phase compute on a 64-config sweep (base C8, axes over ROB / fetch
//      buffer / LDQ-STQ — parameters the structural sub-simulations never
//      read).  Cold = a fresh PerfSimulator per configuration, which is
//      exactly what the old whole-config phase memo cost on a sweep (every
//      configuration was a distinct key, so it never hit across configs).
//      Memoized = fresh simulators sharing one StructuralSimCache.  All
//      event vectors must be bit-identical; the memoized sweep must clear
//      a 5x speedup bar.
//   2. Shared-vs-private memo hit rates: the same sweep evaluated by 4
//      workers sharing one cache vs 4 workers with private caches.
//      Reported (not gated) — it shows why the serve/sweep layers share.
//   3. End-to-end sweep throughput at 4 threads: serve::run_sweep (shared
//      memo) vs the same fan-out with a fresh un-memoized simulator per
//      evaluation (the old per-query cost).  Predicted powers must be
//      bit-identical; the shared-memo sweep must clear a 2x bar.
//   4. Large-grid streaming: a grid of AUTOPOWER_BENCH_STREAM_CELLS
//      cells (default 1e7 — past the old 1e6 materialisation cap) run
//      to completion through the lazy GridCursor with a fixed
//      --memory-budget and a bounded top-16 ranker.  Reports cells/sec
//      and the process peak RSS (VmHWM); FAILS if the grid does not
//      complete or peak RSS exceeds the bar — the "RAM stays flat at
//      million-cell scale" acceptance gate.
//
// The bench FAILS (exit 1) on any identity violation or missed bar.
// `--json <path>` additionally writes the headline numbers for
// tools/check.sh to collect into BENCH_sim.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/events.hpp"
#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "power/golden.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/structural_cache.hpp"
#include "workload/workload.hpp"

using namespace autopower;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool identical(const arch::EventVector& a, const arch::EventVector& b) {
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto kind = static_cast<arch::EventKind>(i);
    if (a[kind] != b[kind]) return false;
  }
  return true;
}

// 4 x 4 x 4 = 64 configurations around C8, varying only parameters the
// structural sub-simulations never read (ROB, fetch buffer, LDQ/STQ), the
// canonical "tune the window, keep the memory system" DSE neighbourhood.
constexpr const char* kGrid =
    "RobEntry=64,80,96,112;FetchBufferEntry=16,24,32,40;"
    "LdqStqEntry=16,24,32,36";
const std::vector<std::string> kWorkloads = {"dhrystone", "qsort"};

// --- Streaming stage sizing --------------------------------------------------

// Peak-RSS ceiling for the streaming stage.  The run must hold a bounded
// structural cache (64 MiB budget), per-worker phase memos and top-16
// heaps regardless of grid size, so the whole process — model, training
// data from stage 3 included — stays far under this.
constexpr double kStreamRssBarMiB = 1024.0;

std::size_t stream_target_cells() {
  const char* env = std::getenv("AUTOPOWER_BENCH_STREAM_CELLS");
  if (env == nullptr || *env == '\0') return 10'000'000;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v == 0 ? 10'000'000 : static_cast<std::size_t>(v);
}

// Builds a grid of roughly `target` configurations: up to seven 10-value
// axes over window/queue parameters (cheap per-cell, structurally
// memoised) plus a leading structural CacheWay axis so the bounded L2
// sees more than one key per lane.  All values are plausible Table II
// neighbourhood points, so every cell evaluates rather than failing fast.
std::vector<serve::SweepAxis> stream_axes(std::size_t target) {
  std::vector<serve::SweepAxis> axes;
  std::size_t cells = 1;
  if (target >= 2) {
    axes.push_back({arch::HwParam::kCacheWay, {2, 4}});
    cells = 2;
  }
  const struct {
    arch::HwParam param;
    int first, step;
  } pools[] = {
      {arch::HwParam::kRobEntry, 32, 16},
      {arch::HwParam::kFetchBufferEntry, 8, 4},
      {arch::HwParam::kLdqStqEntry, 8, 4},
      {arch::HwParam::kIntPhyRegister, 48, 8},
      {arch::HwParam::kFpPhyRegister, 48, 8},
      {arch::HwParam::kBranchCount, 8, 2},
      {arch::HwParam::kMshrEntry, 2, 1},
  };
  for (const auto& pool : pools) {
    const std::size_t want = target / cells;
    if (want < 2) break;
    const std::size_t n = std::min<std::size_t>(want, 10);
    serve::SweepAxis axis{pool.param, {}};
    for (std::size_t i = 0; i < n; ++i) {
      axis.values.push_back(pool.first + static_cast<int>(i) * pool.step);
    }
    cells *= n;
    axes.push_back(std::move(axis));
  }
  return axes;
}

// Peak resident set (VmHWM) of this process, in MiB; 0 if unreadable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bool ok = true;

  const auto axes = serve::parse_grid(kGrid);
  const serve::GridCursor cursor(arch::boom_config("C8"), axes);
  std::vector<arch::HardwareConfig> configs;
  for (std::size_t n = 0; n < cursor.size(); ++n) {
    configs.push_back(cursor.config_at(n));
  }
  std::vector<const workload::WorkloadProfile*> profiles;
  for (const auto& name : kWorkloads) {
    profiles.push_back(&workload::workload_by_name(name));
  }
  const std::size_t evals = configs.size() * profiles.size();
  std::printf("sweep grid                 : %zu configs x %zu workloads"
              " = %zu evaluations\n",
              configs.size(), profiles.size(), evals);

  // --- 1. Cold vs memoized phase compute ---------------------------------
  std::vector<arch::EventVector> cold(evals);
  auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    sim::PerfSimulator sim;  // private cache: no reuse across configs
    for (std::size_t w = 0; w < profiles.size(); ++w) {
      cold[c * profiles.size() + w] = sim.simulate(configs[c], *profiles[w]);
    }
  }
  const double cold_s = seconds_since(start);

  auto shared = std::make_shared<util::StructuralSimCache>();
  std::vector<arch::EventVector> memoized(evals);
  start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    sim::PerfSimulator sim(sim::SimOptions{}, shared);
    for (std::size_t w = 0; w < profiles.size(); ++w) {
      memoized[c * profiles.size() + w] =
          sim.simulate(configs[c], *profiles[w]);
    }
  }
  const double memo_s = seconds_since(start);
  const double phase_speedup = cold_s / memo_s;

  bool events_identical = true;
  for (std::size_t i = 0; i < evals; ++i) {
    if (!identical(cold[i], memoized[i])) events_identical = false;
  }
  const auto shared_stats = shared->stats();
  std::printf("phase compute, cold        : %.3f s\n", cold_s);
  std::printf("phase compute, memoized    : %.3f s  (%.1fx, bar 5.00x; "
              "memo %llu/%llu hit/miss)\n",
              memo_s, phase_speedup,
              static_cast<unsigned long long>(shared_stats.hits),
              static_cast<unsigned long long>(shared_stats.misses));
  std::printf("event vectors bit-identical: %s\n",
              events_identical ? "yes" : "NO");
  if (!events_identical) {
    std::printf("FAIL: memoized simulate diverged from a fresh simulator\n");
    ok = false;
  }
  if (phase_speedup < 5.0) {
    std::printf("FAIL: memoized phase compute below the 5x bar\n");
    ok = false;
  }

  // --- 2. Shared vs private memo hit rates at 4 workers ------------------
  // Same sweep, pulled off an atomic counter by 4 workers; only the cache
  // arrangement differs.
  const auto worker_sweep = [&](bool share) {
    auto cache = std::make_shared<util::StructuralSimCache>();
    util::StructuralSimCache::Stats private_total{};
    std::mutex stats_mu;
    std::atomic<std::size_t> next{0};
    util::run_workers(4, [&](std::size_t) {
      auto mine = share ? cache
                        : std::make_shared<util::StructuralSimCache>();
      {
        // Scoped so the simulator's private L1 flushes its counters
        // back into `mine` before the stats are read.
        sim::PerfSimulator sim(sim::SimOptions{}, mine);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= evals) break;
          (void)sim.simulate(configs[i / profiles.size()],
                             *profiles[i % profiles.size()]);
        }
      }
      if (!share) {
        const auto s = mine->stats();
        std::lock_guard lock(stats_mu);
        private_total.hits += s.hits;
        private_total.misses += s.misses;
      }
    });
    return share ? cache->stats() : private_total;
  };
  const auto shared_4t = worker_sweep(true);
  const auto private_4t = worker_sweep(false);
  std::printf("memo hit rate, 4t shared   : %.1f%%  (%llu/%llu hit/miss)\n",
              100.0 * shared_4t.hit_rate(),
              static_cast<unsigned long long>(shared_4t.hits),
              static_cast<unsigned long long>(shared_4t.misses));
  std::printf("memo hit rate, 4t private  : %.1f%%  (%llu/%llu hit/miss)\n",
              100.0 * private_4t.hit_rate(),
              static_cast<unsigned long long>(private_4t.hits),
              static_cast<unsigned long long>(private_4t.misses));

  // --- 3. End-to-end sweep throughput at 4 threads -----------------------
  sim::PerfSimulator train_sim;
  power::GoldenPowerModel golden;
  const auto data = exp::ExperimentData::build(train_sim, golden);
  core::AutoPowerModel model;
  model.train(data.contexts_of(exp::ExperimentData::training_configs(2)),
              golden);

  // Old per-query cost: a fresh, un-memoized simulator per evaluation
  // (the whole-config memo never hit across a sweep's distinct configs).
  std::vector<double> old_mw(evals);
  std::atomic<std::size_t> next{0};
  start = std::chrono::steady_clock::now();
  util::run_workers(4, [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= evals) break;
      const auto& cfg = configs[i / profiles.size()];
      const auto& profile = *profiles[i % profiles.size()];
      sim::PerfSimulator sim;
      core::EvalContext ctx;
      ctx.cfg = &cfg;
      ctx.workload = profile.name;
      ctx.program = workload::program_features(profile);
      ctx.events = sim.simulate(cfg, profile);
      old_mw[i] = model.predict_total(ctx);
    }
  });
  const double sweep_old_s = seconds_since(start);

  serve::SweepSpec spec;
  spec.base = "C8";
  spec.axes = axes;
  spec.workloads = kWorkloads;
  spec.threads = 4;
  start = std::chrono::steady_clock::now();
  const auto report = serve::run_sweep(model, spec);
  const double sweep_shared_s = seconds_since(start);
  const double sweep_speedup = sweep_old_s / sweep_shared_s;

  // run_sweep ranks its rows; compare cell-by-cell through config names.
  bool sweep_identical = report.evaluations == evals;
  std::size_t matched = 0;
  for (const auto& row : report.rows) {
    std::size_t c = 0;
    for (; c < configs.size(); ++c) {
      if (configs[c].name() == row.config.name()) break;
    }
    if (c == configs.size() || row.cells.size() != profiles.size()) {
      sweep_identical = false;
      continue;
    }
    for (std::size_t w = 0; w < row.cells.size(); ++w) {
      if (!row.cells[w].ok ||
          row.cells[w].total_mw != old_mw[c * profiles.size() + w]) {
        sweep_identical = false;
      } else {
        ++matched;
      }
    }
  }
  if (matched != evals) sweep_identical = false;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("sweep @ 4t, fresh sims     : %7.1f eval/s  (%.3f s)\n",
              evals / sweep_old_s, sweep_old_s);
  std::printf("sweep @ 4t, shared memo    : %7.1f eval/s  (%.3f s, %.2fx,"
              " bar 2.00x, %u hw threads)\n",
              evals / sweep_shared_s, sweep_shared_s, sweep_speedup, hw);
  std::printf("sweep powers bit-identical : %s\n",
              sweep_identical ? "yes" : "NO");
  if (!sweep_identical) {
    std::printf("FAIL: shared-memo sweep diverged from fresh simulators\n");
    ok = false;
  }
  if (sweep_speedup < 2.0) {
    std::printf("FAIL: shared-memo sweep below the 2x bar\n");
    ok = false;
  }

  // --- 4. Large-grid streaming under a fixed memory budget ---------------
  const std::size_t stream_target = stream_target_cells();
  serve::SweepSpec stream_spec;
  stream_spec.base = "C8";
  stream_spec.axes = stream_axes(stream_target);
  stream_spec.workloads = {"dhrystone"};
  stream_spec.threads = 2;
  stream_spec.top = 16;
  stream_spec.memory_budget = 64ull << 20;  // 64 MiB structural cache
  const serve::GridCursor stream_cursor(arch::boom_config(stream_spec.base),
                                        stream_spec.axes);
  const std::size_t stream_cells =
      stream_cursor.size() * stream_spec.workloads.size();
  std::printf("streaming grid             : %zu configs x %zu workloads"
              " = %zu cells (target %zu)\n",
              stream_cursor.size(), stream_spec.workloads.size(),
              stream_cells, stream_target);

  const auto failed_before =
      util::MetricsRegistry::global().counter("serve.sweep.cells_failed")
          .value();
  start = std::chrono::steady_clock::now();
  const auto stream_report = serve::run_sweep(model, stream_spec);
  const double stream_s = seconds_since(start);
  const double stream_rate = double(stream_report.evaluations) / stream_s;
  const double stream_rss = peak_rss_mib();
  const auto stream_failed =
      util::MetricsRegistry::global().counter("serve.sweep.cells_failed")
          .value() - failed_before;

  std::printf("streaming sweep @ 2t       : %7.1f cells/s  (%.1f s, "
              "top-%zu of %zu rows kept)\n",
              stream_rate, stream_s, stream_report.rows.size(),
              stream_report.configs);
  std::printf("streaming peak RSS         : %.1f MiB  (bar %.0f MiB; "
              "structural %llu/%llu hit/miss, %llu evicted)\n",
              stream_rss, kStreamRssBarMiB,
              static_cast<unsigned long long>(stream_report.structural.hits),
              static_cast<unsigned long long>(
                  stream_report.structural.misses),
              static_cast<unsigned long long>(
                  stream_report.structural.evictions));
  if (stream_report.evaluations != stream_cells ||
      stream_report.configs != stream_cursor.size()) {
    std::printf("FAIL: streaming sweep did not cover the whole grid\n");
    ok = false;
  }
  if (stream_report.rows.size() !=
      std::min<std::size_t>(16, stream_report.configs)) {
    std::printf("FAIL: top-k ranker kept the wrong number of rows\n");
    ok = false;
  }
  if (stream_failed != 0) {
    std::printf("FAIL: %llu streaming cells failed to evaluate\n",
                static_cast<unsigned long long>(stream_failed));
    ok = false;
  }
  if (stream_rss <= 0.0 || stream_rss > kStreamRssBarMiB) {
    std::printf("FAIL: streaming peak RSS outside the %.0f MiB bar\n",
                kStreamRssBarMiB);
    ok = false;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\n"
          "  \"sweep_configs\": %zu,\n"
          "  \"sweep_evaluations\": %zu,\n"
          "  \"phase_cold_s\": %.6f,\n"
          "  \"phase_memoized_s\": %.6f,\n"
          "  \"phase_speedup\": %.3f,\n"
          "  \"memo_hit_rate_shared_4t\": %.4f,\n"
          "  \"memo_hit_rate_private_4t\": %.4f,\n"
          "  \"sweep_fresh_4t_s\": %.6f,\n"
          "  \"sweep_shared_4t_s\": %.6f,\n"
          "  \"sweep_speedup\": %.3f,\n"
          "  \"hardware_threads\": %u,\n"
          "  \"stream_cells\": %zu,\n"
          "  \"stream_configs\": %zu,\n"
          "  \"stream_s\": %.3f,\n"
          "  \"stream_cells_per_s\": %.1f,\n"
          "  \"stream_peak_rss_mib\": %.1f,\n"
          "  \"stream_rss_bar_mib\": %.0f,\n"
          "  \"stream_evictions\": %llu,\n"
          "  \"bit_identical\": %s\n"
          "}\n",
          configs.size(), evals, cold_s, memo_s, phase_speedup,
          shared_4t.hit_rate(), private_4t.hit_rate(), sweep_old_s,
          sweep_shared_s, sweep_speedup, hw, stream_cells,
          stream_report.configs, stream_s, stream_rate, stream_rss,
          kStreamRssBarMiB,
          static_cast<unsigned long long>(stream_report.structural.evictions),
          (events_identical && sweep_identical) ? "true" : "false");
      std::fclose(f);
    } else {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      ok = false;
    }
  }

  std::printf(ok ? "PASS\n" : "FAIL\n");
  return ok ? 0 : 1;
}

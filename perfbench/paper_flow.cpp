// paper_flow: the paper's own experiments.
//
//   setup    exp::ExperimentData::build: 15 configs x 8 workloads with
//            golden labels
//   stage a  few-shot models for k = 2..15 spread-selected known sets
//            (paper Fig. 6), then the k=2 model's held-out accuracy
//            through predict_batch
//   stage b  power traces (paper Table IV): trace-mode requests through
//            a BatchEngine, one batch per workload: gemm on two
//            configurations of equal cost (one per worker), spmm on one
//            (a second spmm trace would double the stage's ~0.5 GiB of
//            window contexts)
//
// The seed orders the k values, picks each workload's trace
// configurations among configurations with identical window counts (C13,
// C14, C15); the gemm batch always runs before the spmm one, so the
// order of allocations, and with it the peak RSS, is the same every run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "exp/accuracy.hpp"
#include "exp/dataset.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "sim/perfsim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace autopower;

/// Fingerprints of the k = 2..15 models, digested in k order.
constexpr const char* kFingerprintDigest = "4d3f6fd0636392ef";
/// Held-out accuracy of the k=2 model, as EXPERIMENTS.md reports it.
constexpr double kHeldoutMapePct = 4.2585;  // 4 decimals
constexpr double kHeldoutR2 = 0.95186;      // 5 decimals

/// Digests of the trace_mw bits per (workload, config).
struct TraceDigest {
  const char* key;
  const char* digest;
};
constexpr TraceDigest kTraceDigests[] = {
    {"gemm@C13", "c06a58088f46ea3c"}, {"gemm@C14", "f6f1ba4d96650597"},
    {"gemm@C15", "6b346d41b729e57b"}, {"spmm@C13", "ca34d9064574e86d"},
    {"spmm@C14", "b184107f287878a2"}, {"spmm@C15", "9acc692802509fb3"},
};

constexpr std::size_t kSetupRepsPerMinute = 150;
constexpr std::size_t kStageRepsPerMinute = 4;
constexpr std::size_t kSampleWindows = 2048;

struct Setup {
  std::unique_ptr<sim::PerfSimulator> sim;
  std::unique_ptr<power::GoldenPowerModel> golden;
  exp::ExperimentData data;
};

Setup build_setup(Tracer& tracer) {
  Setup s;
  s.sim = std::make_unique<sim::PerfSimulator>();
  s.golden = std::make_unique<power::GoldenPowerModel>();
  auto span = tracer.span("exp.dataset_build");
  s.data = exp::ExperimentData::build(*s.sim, *s.golden);
  span.set_items(s.data.samples().size());
  return s;
}

bool rounds_to(double value, double want, int decimals) {
  const double scale = std::pow(10.0, decimals);
  return std::round(value * scale) == std::round(want * scale);
}

struct FewShot {
  double seconds = 0.0;
  std::shared_ptr<const core::AutoPowerModel> k2;
  std::string fingerprint_digest;
  exp::Accuracy heldout;
  std::size_t heldout_samples = 0;
  RegistrySnapshot metrics;
};

FewShot few_shot(const Setup& setup, const std::vector<int>& ks,
                 std::size_t threads, Tracer& tracer) {
  FewShot out;
  std::vector<std::string> fingerprints(16);
  const auto before = RegistrySnapshot::global();
  const auto start = Clock::now();
  for (const int k : ks) {
    const auto known = exp::ExperimentData::training_configs(k);
    const auto ctxs = setup.data.contexts_of(known);
    auto model = std::make_shared<core::AutoPowerModel>();
    {
      auto s = tracer.span("core.train", ctxs.size());
      model->train(ctxs, *setup.golden, threads);
    }
    fingerprints[static_cast<std::size_t>(k)] = model->fingerprint();
    if (k == 2) out.k2 = std::move(model);
  }
  const auto known = exp::ExperimentData::training_configs(2);
  const auto samples = setup.data.samples_excluding(known);
  std::vector<core::EvalContext> ctxs;
  std::vector<double> actual;
  for (const auto* s : samples) {
    ctxs.push_back(s->ctx);
    actual.push_back(s->golden.total());
  }
  std::vector<double> predicted;
  {
    auto s = tracer.span("core.predict_batch", ctxs.size());
    for (const auto& r : out.k2->predict_batch(ctxs)) predicted.push_back(r.total());
  }
  out.heldout = exp::compute_accuracy(actual, predicted);
  out.seconds = seconds_since(start);
  out.metrics = delta(before, RegistrySnapshot::global());
  out.heldout_samples = samples.size();
  std::uint64_t h = fnv1a("");
  for (int k = 2; k <= 15; ++k) h = fnv1a(fingerprints[static_cast<std::size_t>(k)], h);
  out.fingerprint_digest = hex64(h);
  return out;
}

struct TraceRun {
  double seconds = 0.0;
  std::vector<serve::BatchResponse> responses;  ///< batch order
};

TraceRun trace_stage(std::shared_ptr<const core::AutoPowerModel> model,
                     const std::vector<std::vector<serve::BatchRequest>>& batches,
                     std::size_t threads, Tracer& tracer) {
  TraceRun out;
  serve::BatchEngine engine(std::move(model), {.threads = threads});
  const auto start = Clock::now();
  for (const auto& batch : batches) {
    auto s = tracer.span("serve.engine.run", batch.size());
    for (auto& r : engine.run(batch)) out.responses.push_back(std::move(r));
  }
  out.seconds = seconds_since(start);
  return out;
}

std::string trace_digest(const std::vector<double>& mw) {
  return hex64(fnv1a(std::string_view(reinterpret_cast<const char*>(mw.data()),
                                      mw.size() * sizeof(double))));
}

/// Checks every trace response against a direct simulate_trace and a
/// predict_trace over a seeded sample of its windows.
void check_traces(const core::AutoPowerModel& model, const TraceRun& run,
                  util::Rng& rng, Tracer& tracer, RunResult& result) {
  const sim::PerfSimulator sim;
  for (const auto& resp : run.responses) {
    const std::string key = resp.workload + "@" + resp.config;
    result.check(resp.ok, "trace request " + key + " failed: " + resp.error);
    if (!resp.ok) continue;
    const std::string digest = trace_digest(resp.trace_mw);
    result.digests["trace." + key] = digest;
    for (const auto& rec : kTraceDigests) {
      if (key == rec.key) {
        result.check(digest == rec.digest, "trace digest for " + key + " is " + digest);
      }
    }
    const auto& cfg = arch::boom_config(resp.config);
    const auto& profile = workload::workload_by_name(resp.workload);
    std::vector<arch::EventVector> windows;
    {
      auto s = tracer.span("sim.simulate_trace");
      windows = sim.simulate_trace(cfg, profile);
      s.set_items(windows.size());
    }
    result.check(windows.size() == resp.trace_mw.size(),
                 "trace window count differs for " + key);
    if (windows.size() != resp.trace_mw.size()) continue;
    const auto picked = sample_indices(windows.size(), kSampleWindows, rng);
    std::vector<core::EvalContext> ctxs(picked.size());
    const auto program = workload::program_features(profile);
    for (std::size_t i = 0; i < picked.size(); ++i) {
      ctxs[i].cfg = &cfg;
      ctxs[i].workload = resp.workload;
      ctxs[i].program = program;
      ctxs[i].events = windows[picked[i]];
    }
    std::vector<double> mw;
    {
      auto s = tracer.span("core.predict_batch", ctxs.size());
      mw = model.predict_trace(ctxs);
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < picked.size(); ++i) {
      if (mw[i] != resp.trace_mw[picked[i]]) ++mismatches;
    }
    result.check(mismatches == 0, "direct trace differs for " + key + " in " +
                                      std::to_string(mismatches) + " windows");
  }
}

/// Replays the dataset's (config, workload) grid through the simulator
/// and the golden flow, one call each.
void replay_dataset(Tracer& tracer) {
  const sim::PerfSimulator sim;
  const power::GoldenPowerModel golden;
  for (const auto& cfg : arch::boom_design_space()) {
    for (const auto& w : workload::riscv_tests_workloads()) {
      arch::EventVector events;
      {
        auto s = tracer.span("sim.simulate");
        events = sim.simulate(cfg, w);
      }
      auto s = tracer.span("power.golden");
      const auto golden_power = golden.evaluate(cfg, events);
      (void)golden_power;
    }
  }
}

}  // namespace

void run_paper_flow(const Options& opts, Tracer& tracer, RunResult& result) {
  const std::size_t threads = worker_threads();
  util::Rng rng(util::hash_combine(opts.seed, util::hash_str("paper_flow")));
  Tracer off(false);

  std::vector<int> ks;
  for (int k = 2; k <= 15; ++k) ks.push_back(k);
  shuffle(ks, rng);
  std::vector<std::vector<serve::BatchRequest>> batches;
  for (const auto& [name, count] : {std::pair{"gemm", 2}, std::pair{"spmm", 1}}) {
    std::vector<std::string> configs = {"C13", "C14", "C15"};
    shuffle(configs, rng);
    std::vector<serve::BatchRequest> batch;
    for (int i = 0; i < count; ++i) {
      batch.push_back({configs[static_cast<std::size_t>(i)], name,
                       serve::PredictMode::kTrace});
    }
    batches.push_back(std::move(batch));
  }

  // Set-up repetitions are spread before, between and after the stage
  // repetitions, so their median samples the host across the whole run.
  std::vector<double> setup_times;
  const auto time_setups = [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      const auto start = Clock::now();
      const Setup discarded = build_setup(off);
      setup_times.push_back(seconds_since(start));
    }
  };
  const std::size_t setup_reps = reps_for(opts, kSetupRepsPerMinute);
  const std::size_t stage_reps = reps_for(opts, kStageRepsPerMinute);
  const std::size_t setups_per_gap = (setup_reps - 1) / (2 * stage_reps + 1);
  const auto start = Clock::now();
  Setup setup = build_setup(off);
  setup_times.push_back(seconds_since(start));
  time_setups(setups_per_gap);

  std::vector<double> fewshot_times, trace_times;
  FewShot fs;
  std::uint64_t windows = 0, failed = 0, requests = 0;
  std::vector<double> rss;
  for (std::size_t r = 0; r < stage_reps; ++r) {
    release_free_memory();
    reset_peak_rss();
    // Stage a: few-shot training + held-out accuracy.
    fs = few_shot(setup, ks, threads, off);
    fewshot_times.push_back(fs.seconds);
    result.digests["fewshot.fingerprints"] = fs.fingerprint_digest;
    result.check(fs.fingerprint_digest == kFingerprintDigest,
                 "few-shot model fingerprint digest is " + fs.fingerprint_digest);
    result.check(rounds_to(fs.heldout.mape, kHeldoutMapePct, 4),
                 "k=2 held-out MAPE is " + std::to_string(fs.heldout.mape));
    result.check(rounds_to(fs.heldout.r2, kHeldoutR2, 5),
                 "k=2 held-out R2 is " + std::to_string(fs.heldout.r2));
    time_setups(setups_per_gap);

    // Stage b: power traces.
    const TraceRun traces = trace_stage(fs.k2, batches, threads, off);
    trace_times.push_back(traces.seconds);
    check_traces(*fs.k2, traces, rng, off, result);
    for (const auto& resp : traces.responses) {
      windows += resp.trace_mw.size();
      failed += resp.ok ? 0 : 1;
      ++requests;
    }
    rss.push_back(peak_rss_mib());
    time_setups(r + 1 < stage_reps ? setups_per_gap
                                   : setup_reps - setup_times.size());
  }
  result.add_phase("fewshot.models", ks.size() * stage_reps, 0);
  result.add_phase("heldout.samples", fs.heldout_samples * stage_reps, 0);
  result.add_phase("trace.requests", requests, failed);
  result.add_phase("trace.windows", windows, 0);

  result.samples["setup_s"] = setup_times;
  result.samples["stage_a_s"] = fewshot_times;
  result.samples["stage_b_s"] = trace_times;
  result.samples["peak_rss_mib"] = rss;
  const double stage_a = median(fewshot_times);
  const double stage_b = median(trace_times);
  result.end_to_end = {
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mib", median(rss), "MiB"},
      {"stage_a_s", stage_a, "s"},
      {"stage_b_s", stage_b, "s"},
  };
  result.figures = {
      {"fewshot_train_s", stage_a, "s"},
      {"heldout_mape_pct", fs.heldout.mape, "%"},
      {"heldout_r2", fs.heldout.r2, "R2"},
      {"trace_windows_per_s",
       static_cast<double>(windows / stage_reps) / stage_b, "windows/s"},
  };
  if (!tracer.enabled()) return;

  // ---- traced pass ------------------------------------------------------
  setup = build_setup(tracer);
  replay_dataset(tracer);
  const FewShot traced = few_shot(setup, ks, threads, tracer);
  const TraceRun traced_traces = trace_stage(traced.k2, batches, threads, tracer);
  check_traces(*traced.k2, traced_traces, rng, tracer, result);

  const auto& d = traced.metrics;
  result.layers = {
      {"sim.simulate_us", tracer.per_call_us("sim.simulate"), "us"},
      {"sim.trace_us_per_window", tracer.per_item_us("sim.simulate_trace"), "us"},
      {"core.predict_batch_us_per_row", tracer.per_item_us("core.predict_batch"), "us"},
      {"core.train_s", tracer.per_call_us("core.train") / 1e6, "s"},
      {"ml.gbt.fit_rows", d.counter("ml.gbt.fit_rows"), "count"},
      {"ml.gbt.fit_s", d.hist_sum("ml.gbt.fit_ns") / 1e9, "s"},
      {"power.golden_us_per_sample", tracer.per_call_us("power.golden"), "us"},
      {"exp.dataset_build_s", tracer.per_call_us("exp.dataset_build") / 1e6, "s"},
  };
  const double untraced = stage_a + stage_b;
  const double traced_s = traced.seconds + traced_traces.seconds;
  result.layers.push_back(
      {"bench.trace_overhead_pct", 100.0 * (traced_s - untraced) / untraced, "%"});
}

}  // namespace perfbench

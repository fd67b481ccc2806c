// Microbenchmarks (google-benchmark): runtime cost of the building blocks.
//
// The paper's pitch is that architecture-level models replace a weeks-long
// VLSI flow with something interactive; these benchmarks document the
// actual costs: golden-pipeline evaluation, performance simulation, model
// training, and per-sample prediction latency.

#include <benchmark/benchmark.h>

#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "sim/perfsim.hpp"
#include "util/rng.hpp"

using namespace autopower;

namespace {

/// Shared fixtures, built once.
struct Fixture {
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  exp::ExperimentData data;
  std::vector<core::EvalContext> train_ctx;
  core::AutoPowerModel model;

  Fixture() : data(exp::ExperimentData::build(sim, golden)) {
    const auto cfgs = exp::ExperimentData::training_configs(2);
    train_ctx = data.contexts_of(cfgs);
    model.train(train_ctx, golden);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

ml::Dataset synthetic_dataset(std::size_t n, std::size_t p) {
  std::vector<std::string> names;
  for (std::size_t j = 0; j < p; ++j) {
    names.push_back(std::string("f").append(std::to_string(j)));
  }
  ml::Dataset data(names);
  util::Rng rng(42);
  std::vector<double> row(p);
  for (std::size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      row[j] = rng.next_range(0.0, 4.0);
      y += (j + 1) * row[j];
    }
    data.add_sample(row, y + rng.next_gauss());
  }
  return data;
}

void BM_RidgeFit(benchmark::State& state) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    ml::RidgeRegression model;
    model.fit(data);
    benchmark::DoNotOptimize(model.coefficients());
  }
}
BENCHMARK(BM_RidgeFit)->Arg(16)->Arg(128);

void BM_GbtFit(benchmark::State& state) {
  const auto data = synthetic_dataset(
      static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    ml::GBTRegressor model;
    model.fit(data);
    benchmark::DoNotOptimize(model.num_trees());
  }
}
BENCHMARK(BM_GbtFit)->Arg(16)->Arg(128);

void BM_PerfSimWorkload(benchmark::State& state) {
  sim::PerfSimulator sim;  // fresh: no memoised phases
  const auto& cfg = arch::boom_config("C8");
  const auto& w = workload::riscv_tests_workloads().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate(cfg, w));
  }
}
BENCHMARK(BM_PerfSimWorkload);

void BM_GoldenEvaluate(benchmark::State& state) {
  auto& f = fixture();
  const auto& s = f.data.samples().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.golden.evaluate(*s.ctx.cfg, s.ctx.events));
  }
}
BENCHMARK(BM_GoldenEvaluate);

void BM_AutoPowerTrainK2(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    core::AutoPowerModel model;
    model.train(f.train_ctx, f.golden);
    benchmark::DoNotOptimize(model.trained());
  }
}
BENCHMARK(BM_AutoPowerTrainK2);

void BM_AutoPowerPredict(benchmark::State& state) {
  auto& f = fixture();
  const auto& ctx = f.data.samples().back().ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.predict_total(ctx));
  }
}
BENCHMARK(BM_AutoPowerPredict);

}  // namespace

BENCHMARK_MAIN();

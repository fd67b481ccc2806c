// Randomized differential oracles over the fast paths (src/testcore).
//
// Every optimised path in this repository claims BIT-identity with a
// reference path.  These properties generate hundreds of random inputs
// per oracle and compare the two paths exactly:
//
//   (a) reference vs presorted tree builder  -> byte-equal archives,
//   (b) per-sample vs SoA batched forest predict -> identical doubles,
//   (c) cold vs memoized / shared-structural-cache simulate and
//       simulate_trace -> identical event vectors,
//   (d) serial vs multi-threaded train / batch engine / sweep ->
//       byte-equal archives and field-identical reports,
//   (e) the batched cell evaluator at any batch size vs one
//       simulate + predict per cell -> identical doubles.
//
// On failure the proptest runner prints the base seed and the exact
// AUTOPOWER_PROPTEST_SEED line that reproduces the case; this binary
// also accepts --seed=N and --cases=N (see main() at the bottom).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/events.hpp"
#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "serve/evaluate.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "testcore/generators.hpp"
#include "testcore/proptest.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace autopower {
namespace {

using testcore::Pcg32;

// ---------------------------------------------------------------------
// Shared helpers.

std::string gbt_archive(const ml::GBTRegressor& model) {
  std::ostringstream out;
  util::ArchiveWriter writer(out);
  model.save(writer);
  return out.str();
}

std::string model_archive(const core::AutoPowerModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

std::optional<std::string> events_diff(const arch::EventVector& a,
                                       const arch::EventVector& b,
                                       const std::string& where) {
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto kind = static_cast<arch::EventKind>(i);
    if (a[kind] != b[kind]) {
      std::ostringstream msg;
      msg << where << ": event " << arch::event_name(kind) << " differs: "
          << a[kind] << " vs " << b[kind];
      return msg.str();
    }
  }
  return std::nullopt;
}

std::string describe_dataset(const ml::Dataset& data,
                             const ml::GbtOptions& opt) {
  std::ostringstream out;
  out << data.size() << " rows x " << data.num_features()
      << " features, rounds=" << opt.num_rounds
      << " depth=" << opt.tree.max_depth << " lr=" << opt.learning_rate
      << " lambda=" << opt.tree.lambda << " gamma=" << opt.tree.gamma
      << " mcw=" << opt.tree.min_child_weight;
  if (data.size() <= 10) {
    out << "; rows:";
    for (std::size_t i = 0; i < data.size(); ++i) {
      out << " [";
      for (const double v : data.features(i)) out << v << ",";
      out << "->" << data.target(i) << "]";
    }
  }
  return out.str();
}

ml::Dataset drop_row(const ml::Dataset& data, std::size_t row) {
  ml::Dataset out(data.feature_names());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != row) out.add_sample(data.features(i), data.target(i));
  }
  return out;
}

// Small AutoPower hyper-parameters so a full 22x3 train fits in a
// property case (the differential claim is thread-count invariance, not
// accuracy, so tiny ensembles are enough).
core::AutoPowerOptions tiny_autopower_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

const power::GoldenPowerModel& shared_golden() {
  static const power::GoldenPowerModel* golden =
      new power::GoldenPowerModel();
  return *golden;
}

// ---------------------------------------------------------------------
// Oracle (a): reference vs presorted tree builder.

struct TreeCase {
  ml::Dataset data;
  ml::GbtOptions opt;
};

TEST(DifferentialTrees, ReferenceVsPresortedBuildersBitIdentical) {
  const auto result = testcore::run_property<TreeCase>(
      {.name = "tree.reference_vs_presorted", .cases = 200},
      [](Pcg32& rng) {
        return TreeCase{testcore::random_dataset(rng),
                        testcore::random_gbt_options(rng)};
      },
      [](const TreeCase& c) -> std::optional<std::string> {
        ml::GbtOptions fast = c.opt;
        fast.tree.reference_split_search = false;
        ml::GbtOptions reference = c.opt;
        reference.tree.reference_split_search = true;
        ml::GBTRegressor fast_model(fast);
        ml::GBTRegressor ref_model(reference);
        fast_model.fit(c.data);
        ref_model.fit(c.data);
        if (gbt_archive(fast_model) != gbt_archive(ref_model)) {
          return "presorted and reference builders produced different "
                 "archives";
        }
        return std::nullopt;
      },
      [](const TreeCase& c) { return describe_dataset(c.data, c.opt); },
      // Shrink: fewer rows first, then fewer rounds / shallower trees.
      [](const TreeCase& c) {
        std::vector<TreeCase> out;
        const std::size_t limit = c.data.size() < 8 ? c.data.size() : 8;
        if (c.data.size() > 2) {
          for (std::size_t i = 0; i < limit; ++i) {
            out.push_back({drop_row(c.data, i), c.opt});
          }
        }
        if (c.opt.num_rounds > 1) {
          TreeCase fewer = c;
          fewer.opt.num_rounds = c.opt.num_rounds / 2;
          out.push_back(std::move(fewer));
        }
        if (c.opt.tree.max_depth > 1) {
          TreeCase shallower = c;
          shallower.opt.tree.max_depth = c.opt.tree.max_depth - 1;
          out.push_back(std::move(shallower));
        }
        return out;
      });
  ASSERT_TRUE(result.passed) << result.report;
  EXPECT_GE(result.cases_run, 1);
}

// ---------------------------------------------------------------------
// Oracle (b): per-sample predict vs the flattened SoA batched paths.

TEST(DifferentialTrees, ScalarVsBatchedPredictBitIdentical) {
  const auto result = testcore::run_property<TreeCase>(
      {.name = "gbt.scalar_vs_batched_predict", .cases = 200},
      [](Pcg32& rng) {
        return TreeCase{testcore::random_dataset(rng),
                        testcore::random_gbt_options(rng)};
      },
      [](const TreeCase& c) -> std::optional<std::string> {
        ml::GBTRegressor model(c.opt);
        model.fit(c.data);

        // Query both the training rows and fresh rows (exercise leaves
        // the fit never visited).
        Pcg32 query_rng(util::hash_str("query-rows"));
        std::vector<double> rows(c.data.row_major_features().begin(),
                                 c.data.row_major_features().end());
        const std::size_t features = c.data.num_features();
        for (int extra = 0; extra < 16; ++extra) {
          for (std::size_t j = 0; j < features; ++j) {
            rows.push_back(query_rng.next_range(-12.0, 12.0));
          }
        }

        const auto batched = model.predict_rows(rows, features);
        const std::size_t count = rows.size() / features;
        if (batched.size() != count) return "predict_rows size mismatch";
        for (std::size_t i = 0; i < count; ++i) {
          const std::span<const double> row(rows.data() + i * features,
                                            features);
          const double scalar = model.predict(row);
          if (scalar != batched[i]) {
            std::ostringstream msg;
            msg << "row " << i << ": predict()=" << scalar
                << " predict_rows()=" << batched[i];
            return msg.str();
          }
        }

        const auto all = model.predict_all(c.data);
        for (std::size_t i = 0; i < c.data.size(); ++i) {
          if (all[i] != batched[i]) {
            std::ostringstream msg;
            msg << "predict_all row " << i << " differs from predict_rows";
            return msg.str();
          }
        }
        return std::nullopt;
      },
      [](const TreeCase& c) { return describe_dataset(c.data, c.opt); });
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle (c): cold vs memoized / shared-cache simulation.

struct SimCase {
  arch::HardwareConfig cfg;
  workload::WorkloadProfile wl;
  sim::SimOptions opt;
};

std::string describe_sim_case(const SimCase& c) {
  std::ostringstream out;
  out << "config " << c.cfg.name() << " [";
  for (const arch::HwParam p : arch::all_hw_params()) {
    out << c.cfg.value(p) << " ";
  }
  out << "], workload " << c.wl.name << " (" << c.wl.phases.size()
      << " phases, " << c.wl.instructions << " instrs), samples="
      << c.opt.sample_accesses << "/" << c.opt.sample_branches
      << " window=" << c.opt.window_cycles;
  return out.str();
}

TEST(DifferentialSim, ColdVsMemoizedSimulateBitIdentical) {
  const auto result = testcore::run_property<SimCase>(
      {.name = "sim.cold_vs_memoized", .cases = 200},
      [](Pcg32& rng) {
        SimCase c{testcore::random_hardware_config(rng),
                  testcore::random_workload_profile(rng),
                  testcore::small_sim_options(rng)};
        // Keep the trace window count bounded for the trace comparison.
        c.wl.instructions = 20'000 + rng.next_below(20'000);
        return c;
      },
      [](const SimCase& c) -> std::optional<std::string> {
        sim::PerfSimulator cold(c.opt);
        const auto ev_cold = cold.simulate(c.cfg, c.wl);

        // Same instance again: the instance PhaseRates memo answers.
        const auto ev_memo = cold.simulate(c.cfg, c.wl);
        if (auto d = events_diff(ev_cold, ev_memo, "instance memo")) {
          return d;
        }

        // Second instance sharing the structural cache: every structural
        // measurement is a hit, the composition recomputes.
        sim::PerfSimulator shared(c.opt, cold.structural_cache());
        const auto ev_shared = shared.simulate(c.cfg, c.wl);
        if (auto d = events_diff(ev_cold, ev_shared, "shared structural")) {
          return d;
        }

        // Trace path: fresh-cache vs warm shared-cache windows.
        const auto trace_warm = shared.simulate_trace(c.cfg, c.wl);
        sim::PerfSimulator fresh(c.opt);
        const auto trace_cold = fresh.simulate_trace(c.cfg, c.wl);
        if (trace_cold.size() != trace_warm.size()) {
          return "trace window counts differ";
        }
        for (std::size_t w = 0; w < trace_cold.size(); ++w) {
          if (auto d = events_diff(trace_cold[w], trace_warm[w],
                                   "trace window " + std::to_string(w))) {
            return d;
          }
        }
        return std::nullopt;
      },
      describe_sim_case);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle (d): serial vs multi-threaded train / batch / sweep.

struct ParallelCase {
  arch::HardwareConfig cfg_a;
  arch::HardwareConfig cfg_b;
  workload::WorkloadProfile wl_a;
  workload::WorkloadProfile wl_b;
  sim::SimOptions sim_opt;
};

std::string describe_parallel_case(const ParallelCase& c) {
  std::ostringstream out;
  out << "configs " << c.cfg_a.name() << "/" << c.cfg_b.name()
      << ", workloads " << c.wl_a.name << "/" << c.wl_b.name;
  return out.str();
}

TEST(DifferentialParallel, SerialVsThreadedTrainByteIdentical) {
  const auto result = testcore::run_property<ParallelCase>(
      {.name = "train.serial_vs_threaded", .cases = 200},
      [](Pcg32& rng) {
        ParallelCase c{testcore::random_hardware_config(rng),
                       testcore::random_hardware_config(rng),
                       testcore::random_workload_profile(rng),
                       testcore::random_workload_profile(rng),
                       testcore::small_sim_options(rng)};
        c.wl_a.instructions = 20'000 + rng.next_below(20'000);
        c.wl_b.instructions = 20'000 + rng.next_below(20'000);
        return c;
      },
      [](const ParallelCase& c) -> std::optional<std::string> {
        sim::PerfSimulator sim(c.sim_opt);
        std::vector<core::EvalContext> ctxs;
        for (const auto* cfg : {&c.cfg_a, &c.cfg_b}) {
          for (const auto* wl : {&c.wl_a, &c.wl_b}) {
            core::EvalContext ctx;
            ctx.cfg = cfg;
            ctx.workload = wl->name;
            ctx.program = workload::program_features(*wl);
            ctx.events = sim.simulate(*cfg, *wl);
            ctxs.push_back(std::move(ctx));
          }
        }

        core::AutoPowerModel serial(tiny_autopower_options());
        serial.train(ctxs, shared_golden(), 1);
        core::AutoPowerModel threaded(tiny_autopower_options());
        threaded.train(ctxs, shared_golden(), 4);
        if (model_archive(serial) != model_archive(threaded)) {
          return "threads=1 and threads=4 training archives differ";
        }
        return std::nullopt;
      },
      describe_parallel_case);
  ASSERT_TRUE(result.passed) << result.report;
}

// The engines and the sweep model persist across cases: their memo
// layers survive run() calls by design, and the determinism contract
// explicitly covers pre-warmed caches — so warm-state comparisons are
// part of what this oracle checks.
class EngineInvariance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SimOptions opt;
    opt.sample_accesses = 500;
    opt.sample_branches = 500;
    sim::PerfSimulator sim(opt);
    std::vector<core::EvalContext> ctxs;
    for (const char* cfg_name : {"C1", "C15"}) {
      const auto& cfg = arch::boom_config(cfg_name);
      for (const char* wl_name : {"dhrystone", "qsort"}) {
        const auto& wl = workload::workload_by_name(wl_name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = wl.name;
        ctx.program = workload::program_features(wl);
        ctx.events = sim.simulate(cfg, wl);
        ctxs.push_back(std::move(ctx));
      }
    }
    auto model =
        std::make_shared<core::AutoPowerModel>(tiny_autopower_options());
    model->train(ctxs, shared_golden(), 1);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(model);
    serial_ = new serve::BatchEngine(*model_, {.threads = 1});
    threaded_ = new serve::BatchEngine(*model_, {.threads = 3});
    sweep_structural_serial_ =
        new std::shared_ptr<util::StructuralSimCache>(
            std::make_shared<util::StructuralSimCache>());
    sweep_structural_threaded_ =
        new std::shared_ptr<util::StructuralSimCache>(
            std::make_shared<util::StructuralSimCache>());
  }
  static void TearDownTestSuite() {
    delete sweep_structural_threaded_;
    delete sweep_structural_serial_;
    delete threaded_;
    delete serial_;
    delete model_;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
  static serve::BatchEngine* serial_;
  static serve::BatchEngine* threaded_;
  static std::shared_ptr<util::StructuralSimCache>* sweep_structural_serial_;
  static std::shared_ptr<util::StructuralSimCache>*
      sweep_structural_threaded_;
};

std::shared_ptr<const core::AutoPowerModel>* EngineInvariance::model_ =
    nullptr;
serve::BatchEngine* EngineInvariance::serial_ = nullptr;
serve::BatchEngine* EngineInvariance::threaded_ = nullptr;
std::shared_ptr<util::StructuralSimCache>*
    EngineInvariance::sweep_structural_serial_ = nullptr;
std::shared_ptr<util::StructuralSimCache>*
    EngineInvariance::sweep_structural_threaded_ = nullptr;

std::optional<std::string> responses_diff(
    const std::vector<serve::BatchResponse>& a,
    const std::vector<serve::BatchResponse>& b) {
  if (a.size() != b.size()) return "response counts differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    std::ostringstream msg;
    msg << "response " << i << " (" << x.config << "/" << x.workload
        << "): ";
    if (x.index != y.index || x.config != y.config ||
        x.workload != y.workload || x.mode != y.mode) {
      msg << "identity fields differ";
      return msg.str();
    }
    if (x.ok != y.ok || x.error != y.error) {
      msg << "ok/error differ: '" << x.error << "' vs '" << y.error << "'";
      return msg.str();
    }
    if (x.total_mw != y.total_mw) {
      msg << "total_mw " << x.total_mw << " vs " << y.total_mw;
      return msg.str();
    }
    if (x.trace_mw != y.trace_mw) {
      msg << "trace_mw differs";
      return msg.str();
    }
    if (x.components.size() != y.components.size()) {
      msg << "component counts differ";
      return msg.str();
    }
    for (std::size_t j = 0; j < x.components.size(); ++j) {
      const auto& cx = x.components[j];
      const auto& cy = y.components[j];
      if (cx.component != cy.component || cx.clock_mw != cy.clock_mw ||
          cx.sram_mw != cy.sram_mw || cx.logic_mw != cy.logic_mw ||
          cx.total_mw != cy.total_mw) {
        msg << "component " << cx.component << " differs";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

std::string describe_batch(const std::vector<serve::BatchRequest>& batch) {
  std::ostringstream out;
  out << batch.size() << " requests:";
  for (const auto& r : batch) {
    out << " " << r.config << "/" << r.workload << "/"
        << serve::to_string(r.mode);
  }
  return out.str();
}

TEST_F(EngineInvariance, SerialVsThreadedBatchBitIdentical) {
  const auto result =
      testcore::run_property<std::vector<serve::BatchRequest>>(
          {.name = "engine.serial_vs_threaded", .cases = 200},
          [](Pcg32& rng) {
            return testcore::random_request_batch(rng, 6,
                                                  /*include_invalid=*/true);
          },
          [](const std::vector<serve::BatchRequest>& batch)
              -> std::optional<std::string> {
            return responses_diff(serial_->run(batch),
                                  threaded_->run(batch));
          },
          describe_batch);
  ASSERT_TRUE(result.passed) << result.report;
}

struct SweepCase {
  serve::SweepSpec spec;
};

std::string describe_sweep(const SweepCase& c) {
  std::ostringstream out;
  out << "base " << c.spec.base << ", axes";
  for (const auto& axis : c.spec.axes) {
    out << " " << arch::hw_param_name(axis.param) << "=";
    for (const int v : axis.values) out << v << ",";
  }
  out << " workloads";
  for (const auto& w : c.spec.workloads) out << " " << w;
  return out.str();
}

std::optional<std::string> sweep_reports_diff(const serve::SweepReport& a,
                                              const serve::SweepReport& b) {
  if (a.configs != b.configs || a.evaluations != b.evaluations) {
    return "sweep sizes differ";
  }
  if (a.rows.size() != b.rows.size()) return "row counts differ";
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (!(x.config == y.config)) {
      return "row " + std::to_string(i) + " config differs";
    }
    if (x.rank != y.rank || x.mean_total_mw != y.mean_total_mw ||
        x.mean_ipc != y.mean_ipc || x.ipc_per_watt != y.ipc_per_watt) {
      return "row " + std::to_string(i) + " metrics differ";
    }
    if (x.cells.size() != y.cells.size()) {
      return "row " + std::to_string(i) + " cell counts differ";
    }
    for (std::size_t j = 0; j < x.cells.size(); ++j) {
      const auto& cx = x.cells[j];
      const auto& cy = y.cells[j];
      if (cx.workload != cy.workload || cx.ok != cy.ok ||
          cx.error != cy.error || cx.total_mw != cy.total_mw ||
          cx.ipc != cy.ipc) {
        return "row " + std::to_string(i) + " cell " + std::to_string(j) +
               " differs";
      }
    }
  }
  return std::nullopt;
}

TEST_F(EngineInvariance, SerialVsThreadedSweepBitIdentical) {
  const auto result = testcore::run_property<SweepCase>(
      {.name = "sweep.serial_vs_threaded", .cases = 200},
      [](Pcg32& rng) {
        SweepCase c;
        const auto& space = arch::boom_design_space();
        c.spec.base = space[rng.index(space.size())].name();
        // One axis, two values drawn from that axis's design-space pool.
        const auto params = arch::all_hw_params();
        const arch::HwParam param = params[rng.index(params.size())];
        std::vector<int> pool;
        for (const auto& cfg : space) {
          const int v = cfg.value(param);
          bool seen = false;
          for (const int u : pool) seen = seen || u == v;
          if (!seen) pool.push_back(v);
        }
        serve::SweepAxis axis{param, {}};
        axis.values.push_back(pool[rng.index(pool.size())]);
        axis.values.push_back(pool[rng.index(pool.size())]);
        c.spec.axes.push_back(std::move(axis));
        const auto& workloads = workload::riscv_tests_workloads();
        c.spec.workloads = {workloads[rng.index(workloads.size())].name};
        const int metric = rng.next_int(0, 2);
        c.spec.metric = metric == 0   ? serve::SweepMetric::kIpcPerWatt
                        : metric == 1 ? serve::SweepMetric::kIpc
                                      : serve::SweepMetric::kPower;
        return c;
      },
      [](const SweepCase& c) -> std::optional<std::string> {
        serve::SweepSpec serial_spec = c.spec;
        serial_spec.threads = 1;
        serve::SweepSpec threaded_spec = c.spec;
        threaded_spec.threads = 3;
        const auto serial_report = serve::run_sweep(
            **model_, serial_spec, *sweep_structural_serial_);
        const auto threaded_report = serve::run_sweep(
            **model_, threaded_spec, *sweep_structural_threaded_);
        return sweep_reports_diff(serial_report, threaded_report);
      },
      describe_sweep);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle: the batched evaluator does not depend on how cells are
// batched.  Random cells (some on a configuration the simulator rejects)
// go through evaluate_cells in slices of 1, 7 and all of them; every
// cell must match simulating it alone and calling predict_total (or
// predict, for the breakdown) on it, bit for bit.

struct EvalCase {
  std::vector<arch::HardwareConfig> configs;  ///< one per cell
  std::vector<std::string> workloads;         ///< one per cell
  bool breakdown = false;
};

std::string describe_eval(const EvalCase& c) {
  std::ostringstream out;
  out << c.configs.size() << " cells" << (c.breakdown ? " (breakdown)" : "")
      << ":";
  for (std::size_t i = 0; i < c.configs.size(); ++i) {
    out << " " << c.configs[i].name() << "/" << c.workloads[i];
  }
  return out.str();
}

TEST_F(EngineInvariance, EvaluatorBatchSizeDoesNotChangeCells) {
  const auto result = testcore::run_property<EvalCase>(
      {.name = "evaluate_cells.batch_size", .cases = 60},
      [](Pcg32& rng) {
        EvalCase c;
        const auto& space = arch::boom_design_space();
        const auto& riscv = workload::riscv_tests_workloads();
        const std::size_t n = 1 + rng.index(16);
        for (std::size_t i = 0; i < n; ++i) {
          const arch::HardwareConfig& base = space[rng.index(space.size())];
          if (rng.next_bool(0.2)) {
            // A non-power-of-two fetch width: simulate throws for it.
            std::array<int, arch::kNumHwParams> values{};
            for (arch::HwParam p : arch::all_hw_params()) {
              values[static_cast<std::size_t>(p)] = base.value(p);
            }
            values[static_cast<std::size_t>(
                arch::HwParam::kICacheFetchBytes)] = 3;
            c.configs.emplace_back(base.name() + "+ICacheFetchBytes=3",
                                   values);
          } else {
            c.configs.push_back(base);
          }
          c.workloads.push_back(riscv[rng.index(riscv.size())].name);
        }
        c.breakdown = rng.next_bool();
        return c;
      },
      [](const EvalCase& c) -> std::optional<std::string> {
        const core::AutoPowerModel& model = **model_;
        const sim::PerfSimulator sim;
        const auto build = [&](std::size_t i, core::EvalContext& ctx) {
          const auto& profile = workload::workload_by_name(c.workloads[i]);
          ctx.cfg = &c.configs[i];
          ctx.workload = profile.name;
          ctx.program = workload::program_features(profile);
          ctx.events = sim.simulate(c.configs[i], profile);
        };
        const std::size_t n = c.configs.size();

        // The reference: each cell alone, with the single-context calls.
        std::vector<serve::CellResult> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          try {
            core::EvalContext ctx;
            build(i, ctx);
            if (c.breakdown) {
              want[i].power = model.predict(ctx);
              want[i].total_mw = want[i].power.total();
            } else {
              want[i].total_mw = model.predict_total(ctx);
            }
            want[i].ipc = ctx.events.rate(arch::EventKind::kInstructions);
            want[i].ok = true;
          } catch (const std::exception& e) {
            want[i].error = e.what();
          }
        }

        for (const std::size_t slice : {std::size_t{1}, std::size_t{7}, n}) {
          std::vector<serve::CellResult> got(n);
          for (std::size_t begin = 0; begin < n; begin += slice) {
            const std::size_t len = std::min(slice, n - begin);
            serve::evaluate_cells(
                model,
                [&](std::size_t k, core::EvalContext& ctx) {
                  build(begin + k, ctx);
                },
                std::span(got).subspan(begin, len), c.breakdown);
          }
          for (std::size_t i = 0; i < n; ++i) {
            const std::string where = "slice " + std::to_string(slice) +
                                      ", cell " + std::to_string(i) + ": ";
            if (got[i].ok != want[i].ok || got[i].error != want[i].error) {
              return where + "ok/error differ: '" + got[i].error + "' vs '" +
                     want[i].error + "'";
            }
            if (got[i].total_mw != want[i].total_mw ||
                got[i].ipc != want[i].ipc) {
              return where + "total_mw/ipc differ";
            }
            const auto& gc = got[i].power.components;
            const auto& wc = want[i].power.components;
            if (gc.size() != wc.size()) {
              return where + "component counts differ";
            }
            for (std::size_t j = 0; j < gc.size(); ++j) {
              if (gc[j].component != wc[j].component ||
                  gc[j].groups.clock != wc[j].groups.clock ||
                  gc[j].groups.sram != wc[j].groups.sram ||
                  gc[j].groups.logic_register !=
                      wc[j].groups.logic_register ||
                  gc[j].groups.logic_comb != wc[j].groups.logic_comb) {
                return where + "component " + std::to_string(j) + " differs";
              }
            }
          }
        }
        return std::nullopt;
      },
      describe_eval);
  ASSERT_TRUE(result.passed) << result.report;
}

// A report-all sweep (top = 0) serialises to the same row bytes at 1, 2
// and 4 threads: the claim schedule changes how configs are chunked
// into batches, never what a row holds.
TEST_F(EngineInvariance, SweepRowBytesIndependentOfThreadCount) {
  serve::SweepSpec spec;
  spec.base = "C8";
  spec.axes = serve::parse_grid(
      "RobEntry=64,80,96,112;FetchBufferEntry=16,24,32;"
      "LdqStqEntry=16,24,32,40");
  spec.workloads = {"dhrystone", "qsort"};
  spec.top = 0;
  std::string want;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    spec.threads = threads;
    const auto report = serve::run_sweep(**model_, spec);
    ASSERT_EQ(report.rows.size(), 48u);
    std::string bytes;
    for (const auto& row : report.rows) {
      serve::append_row_json(bytes, row);
      bytes += '\n';
    }
    if (threads == 1) {
      want = bytes;
    } else {
      EXPECT_EQ(bytes, want) << "threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Oracle: SIGKILL-mid-sweep -> resume bit-identity.  A kill leaves the
// checkpoint file as a byte prefix of what an uninterrupted run writes
// (appends + batched fsync, possibly torn mid-line), so truncating a
// finished checkpoint at a random offset reproduces every possible kill
// point — including inside the header and inside a row.  Resuming from
// that prefix must yield a report byte-identical to the uninterrupted
// run's, for any thread count, metric and top-k.

struct ResumeCase {
  serve::SweepSpec spec;
  double cut_frac = 0.0;  ///< where the "kill" lands, as a file fraction
};

std::string describe_resume(const ResumeCase& c) {
  std::ostringstream out;
  out << describe_sweep({c.spec}) << ", threads " << c.spec.threads
      << ", top " << c.spec.top << ", cut at "
      << static_cast<int>(c.cut_frac * 100.0) << "%";
  return out.str();
}

std::string report_bytes(const serve::SweepReport& report) {
  std::ostringstream out;
  serve::write_sweep_report(out, report);
  return out.str();
}

TEST_F(EngineInvariance, TruncatedCheckpointResumeBitIdentical) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("autopower_resume_diff_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "sweep.ckpt").string();

  const auto result = testcore::run_property<ResumeCase>(
      {.name = "sweep.truncated_resume", .cases = 200},
      [](Pcg32& rng) {
        ResumeCase c;
        const auto& space = arch::boom_design_space();
        c.spec.base = space[rng.index(space.size())].name();
        const auto params = arch::all_hw_params();
        const arch::HwParam param = params[rng.index(params.size())];
        std::vector<int> pool;
        for (const auto& cfg : space) {
          const int v = cfg.value(param);
          bool seen = false;
          for (const int u : pool) seen = seen || u == v;
          if (!seen) pool.push_back(v);
        }
        serve::SweepAxis axis{param, {}};
        for (int i = 0; i < 3; ++i) {
          axis.values.push_back(pool[rng.index(pool.size())]);
        }
        c.spec.axes.push_back(std::move(axis));
        const auto& workloads = workload::riscv_tests_workloads();
        c.spec.workloads = {workloads[rng.index(workloads.size())].name};
        c.spec.threads = 1 + rng.index(3);
        c.spec.top = rng.next_bool(0.3) ? 2 : 0;
        c.spec.metric = rng.next_bool() ? serve::SweepMetric::kIpcPerWatt
                                        : serve::SweepMetric::kPower;
        c.cut_frac = rng.next_unit();
        return c;
      },
      [&ckpt](const ResumeCase& c) -> std::optional<std::string> {
        std::error_code ec;
        std::filesystem::remove(ckpt, ec);
        serve::SweepSpec spec = c.spec;
        spec.checkpoint = ckpt;
        const auto full = serve::run_sweep(**model_, spec);
        const std::string want = report_bytes(full);

        // "Kill" the run: keep only a byte prefix of its checkpoint.
        std::string bytes;
        {
          std::ifstream in(ckpt, std::ios::binary);
          std::ostringstream buf;
          buf << in.rdbuf();
          bytes = buf.str();
        }
        const auto cut =
            static_cast<std::size_t>(c.cut_frac * double(bytes.size()));
        {
          std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
          out << bytes.substr(0, cut);
        }

        spec.resume = true;
        const auto resumed = serve::run_sweep(**model_, spec);
        if (const auto diff = sweep_reports_diff(full, resumed)) {
          return "resumed report differs: " + *diff;
        }
        if (report_bytes(resumed) != want) {
          return "resumed report bytes differ after cutting " +
                 std::to_string(cut) + "/" + std::to_string(bytes.size());
        }
        return std::nullopt;
      },
      describe_resume);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(result.passed) << result.report;
}

}  // namespace
}  // namespace autopower

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  autopower::testcore::apply_cli_flags(&argc, argv);
  return RUN_ALL_TESTS();
}

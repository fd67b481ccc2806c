#include "core/autopower.hpp"

#include <atomic>
#include <fstream>
#include <sstream>

#include "util/archive.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autopower::core {

namespace {

// Per-group sub-model fit timings plus the whole train() wall time;
// one histogram observation per sub-model fit (22 per group per train).
struct TrainMetrics {
  util::Histogram& train_ns;
  util::Histogram& clock_fit_ns;
  util::Histogram& sram_fit_ns;
  util::Histogram& logic_fit_ns;
  util::Counter& submodel_fits;
};

TrainMetrics& train_metrics() {
  auto& r = util::MetricsRegistry::global();
  static TrainMetrics m{r.histogram("core.train.train_ns"),
                        r.histogram("core.train.clock_fit_ns"),
                        r.histogram("core.train.sram_fit_ns"),
                        r.histogram("core.train.logic_fit_ns"),
                        r.counter("core.train.submodel_fits")};
  return m;
}

}  // namespace

void AutoPowerModel::train(std::span<const EvalContext> samples,
                           const power::GoldenPowerModel& golden,
                           std::size_t threads) {
  AP_REQUIRE(!samples.empty(), "AutoPower needs training samples");
  util::ScopedTimer train_timer(train_metrics().train_ns);
  // Reset every slot up front (serially — cheap) so the fits below only
  // ever touch their own component's models.
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i] = ClockPowerModel(options_.clock);
    sram_[i] = SramPowerModel(options_.sram);
    logic_[i] = LogicPowerModel(options_.logic);
  }

  // 22 components x 3 groups = 66 independent fits, claimed off one
  // counter.  Each fit writes one pre-reset slot and nothing else, so the
  // trained model does not depend on scheduling: archives are
  // byte-identical at any thread count.
  const auto components = arch::all_components();
  constexpr std::size_t kGroups = 3;
  const std::size_t fits = components.size() * kGroups;
  std::atomic<std::size_t> next{0};
  util::run_workers(util::worker_count(threads, fits), [&](std::size_t) {
    for (std::size_t f = next.fetch_add(1, std::memory_order_relaxed);
         f < fits; f = next.fetch_add(1, std::memory_order_relaxed)) {
      const arch::ComponentKind c = components[f / kGroups];
      const auto i = static_cast<std::size_t>(c);
      switch (f % kGroups) {
        case 0: {
          util::ScopedTimer t(train_metrics().clock_fit_ns);
          clock_[i].train(c, samples, golden);
          break;
        }
        case 1: {
          util::ScopedTimer t(train_metrics().sram_fit_ns);
          sram_[i].train(c, samples, golden);
          break;
        }
        default: {
          util::ScopedTimer t(train_metrics().logic_fit_ns);
          logic_[i].train(c, samples, golden);
          break;
        }
      }
      train_metrics().submodel_fits.inc();
    }
  });
  trained_ = true;
  refresh_fingerprint();
}

void AutoPowerModel::refresh_fingerprint() {
  // Fingerprint the archive bytes, not the in-memory layout, so a trained
  // model and a load() of its saved archive carry the same identity token.
  std::ostringstream archive;
  save(archive);
  fingerprint_ = util::content_fingerprint(archive.str());
}

void AutoPowerModel::save(std::ostream& out) const {
  AP_REQUIRE(trained_, "cannot save an untrained AutoPower model");
  util::ArchiveWriter w(out);
  w.write("autopower.format", std::int64_t{1});
  w.write("autopower.components",
          static_cast<std::int64_t>(arch::kNumComponents));
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i].save(w);
    sram_[i].save(w);
    logic_[i].save(w);
  }
}

void AutoPowerModel::load(std::istream& in) {
  // Slurp the whole archive first: the fingerprint must hash exactly the
  // bytes that were parsed, and hashing a replay of the same buffer keeps
  // the two trivially in sync.
  std::ostringstream buf;
  buf << in.rdbuf();
  AP_REQUIRE(!in.bad(), "failed reading AutoPower archive stream");
  const std::string bytes = buf.str();
  std::istringstream replay(bytes);
  util::ArchiveReader r(replay);
  AP_REQUIRE(r.read_int("autopower.format") == 1,
             "unsupported AutoPower archive format");
  AP_REQUIRE(r.read_int("autopower.components") ==
                 static_cast<std::int64_t>(arch::kNumComponents),
             "archive component count does not match this build");
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i].load(r);
    sram_[i].load(r);
    logic_[i].load(r);
  }
  trained_ = true;
  fingerprint_ = util::content_fingerprint(bytes);
}

void AutoPowerModel::save_to_file(const std::string& path) const {
  std::ofstream out(path);
  AP_REQUIRE(out.good(), "cannot open file for writing: " + path);
  save(out);
  AP_REQUIRE(out.good(), "failed writing model file: " + path);
}

void AutoPowerModel::load_from_file(const std::string& path) {
  std::ifstream in(path);
  AP_REQUIRE(in.good(), "cannot open model file: " + path);
  load(in);
}

power::PowerResult AutoPowerModel::predict(const EvalContext& ctx) const {
  return predict_batch({&ctx, 1}).front();
}

std::vector<power::PowerResult> AutoPowerModel::predict_batch(
    std::span<const EvalContext> ctxs) const {
  if (ctxs.empty()) return {};  // nothing to do, even untrained
  AP_REQUIRE(trained_, "AutoPower not trained");
  std::vector<power::PowerResult> out(ctxs.size());
  for (auto& r : out) r.components.resize(arch::kNumComponents);

  // Component-major: each component's group models see the whole batch at
  // once, so every GBT walks its flattened forest in one predict_rows
  // pass instead of once per context.
  std::vector<double> reg(ctxs.size());
  std::vector<double> comb(ctxs.size());
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    const auto clock = clock_[i].predict_batch(ctxs);
    const auto sram = sram_[i].predict_batch(ctxs);
    logic_[i].predict_batch(ctxs, reg, comb);
    for (std::size_t j = 0; j < ctxs.size(); ++j) {
      power::ComponentPower& cp = out[j].components[i];
      cp.component = c;
      cp.groups.clock = clock[j];
      cp.groups.sram = sram[j];
      cp.groups.logic_register = reg[j];
      cp.groups.logic_comb = comb[j];
    }
  }
  return out;
}

double AutoPowerModel::predict_total(const EvalContext& ctx) const {
  return predict(ctx).total();
}

std::vector<double> AutoPowerModel::predict_total_batch(
    std::span<const EvalContext> ctxs) const {
  if (ctxs.empty()) return {};
  AP_REQUIRE(trained_, "AutoPower not trained");
  // Same component-major evaluation as predict_batch, but each context
  // keeps one running PowerGroups instead of a 22-component vector.  The
  // per-field accumulation in component order followed by
  // clock+sram+logic_register+logic_comb reproduces
  // PowerResult::totals().total() exactly, so every element is
  // bit-identical to predict(ctxs[i]).total().
  std::vector<power::PowerGroups> acc(ctxs.size());
  std::vector<double> reg(ctxs.size());
  std::vector<double> comb(ctxs.size());
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    const auto clock = clock_[i].predict_batch(ctxs);
    const auto sram = sram_[i].predict_batch(ctxs);
    logic_[i].predict_batch(ctxs, reg, comb);
    for (std::size_t j = 0; j < ctxs.size(); ++j) {
      power::PowerGroups groups;
      groups.clock = clock[j];
      groups.sram = sram[j];
      groups.logic_register = reg[j];
      groups.logic_comb = comb[j];
      acc[j] += groups;
    }
  }
  std::vector<double> out;
  out.reserve(ctxs.size());
  for (const power::PowerGroups& groups : acc) out.push_back(groups.total());
  return out;
}

std::vector<double> AutoPowerModel::predict_trace(
    std::span<const EvalContext> windows) const {
  return predict_total_batch(windows);
}

const ClockPowerModel& AutoPowerModel::clock_model(
    arch::ComponentKind c) const {
  return clock_[static_cast<std::size_t>(c)];
}

const SramPowerModel& AutoPowerModel::sram_model(
    arch::ComponentKind c) const {
  return sram_[static_cast<std::size_t>(c)];
}

const LogicPowerModel& AutoPowerModel::logic_model(
    arch::ComponentKind c) const {
  return logic_[static_cast<std::size_t>(c)];
}

}  // namespace autopower::core

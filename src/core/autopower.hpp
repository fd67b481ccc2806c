// AutoPower — the paper's primary contribution.
//
// Fully automated, few-shot architecture-level power modeling by power
// group decoupling: per component, independent models for the clock, SRAM
// and logic power groups (each itself decoupled into structural ridge
// sub-models and activity GBT sub-models).  Train on as few as two known
// configurations; predict per-component, per-group power for any
// configuration/workload — including per-50-cycle windows for time-based
// power traces (paper Sec. III-B5).
//
// Typical use:
//
//   sim::PerfSimulator sim;                    // gem5 stand-in
//   power::GoldenPowerModel golden;            // VLSI-flow stand-in
//   auto train = exp::make_contexts(sim, {"C1", "C15"}, workloads);
//   core::AutoPowerModel model;
//   model.train(train, golden);
//   auto prediction = model.predict(ctx);      // PowerResult, mW
#pragma once

#include <array>
#include <iosfwd>
#include <span>
#include <string>

#include "core/clock_model.hpp"
#include "core/logic_model.hpp"
#include "core/sample.hpp"
#include "core/sram_model.hpp"
#include "power/report.hpp"

namespace autopower::core {

/// Hyper-parameters for all of AutoPower's sub-models.
struct AutoPowerOptions {
  ClockModelOptions clock;
  SramModelOptions sram;
  LogicModelOptions logic;
};

/// The end-to-end AutoPower model: 22 components x 3 power groups.
///
/// Thread safety: train(), load() and the file wrappers mutate the model
/// and must not run concurrently with anything else.  train() may itself
/// fan the independent sub-model fits across worker threads (`threads`
/// parameter); each fit writes a disjoint per-component slot,
/// so the trained model — and hence its saved archive — is byte-identical
/// at any thread count.  Once training or loading has completed, every
/// const method — predict(), predict_batch(), predict_total(),
/// predict_trace(), the per-component model accessors — only reads
/// immutable state and is safe to call concurrently from any number of
/// threads on one shared instance (the serving layer in src/serve/ relies
/// on this: a model is published as shared_ptr<const AutoPowerModel> and
/// queried by many worker threads at once).
class AutoPowerModel {
 public:
  AutoPowerModel() = default;
  explicit AutoPowerModel(AutoPowerOptions options) : options_(options) {}

  /// Trains every per-component group model.  `samples` should cover the
  /// known configurations x training workloads; golden labels are read
  /// from the golden flow (synthesis reports, RTL activity, power sim).
  /// With `threads > 1` the 22 x 3 independent sub-model fits run on up
  /// to that many workers (util::worker_count clamps it to the host);
  /// results land in fixed per-component slots, so the model
  /// is identical (archives byte-equal) at any thread count.
  void train(std::span<const EvalContext> samples,
             const power::GoldenPowerModel& golden, std::size_t threads = 1);

  /// Full per-component, per-group power prediction (mW).
  [[nodiscard]] power::PowerResult predict(const EvalContext& ctx) const;

  /// Batched prediction: one PowerResult per context, evaluated
  /// component-major so every GBT sub-model makes a single pass over its
  /// flattened forest for the whole batch.  Element i is bit-identical to
  /// predict(ctxs[i]).
  [[nodiscard]] std::vector<power::PowerResult> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Total core power (mW).
  [[nodiscard]] double predict_total(const EvalContext& ctx) const;

  /// Batched totals: element i is bit-identical to
  /// predict(ctxs[i]).total(), evaluated component-major like
  /// predict_batch but holding only one PowerGroups accumulator per
  /// context instead of the full 22-component breakdown — the scoring
  /// path for surrogate-driven search loops that rank thousands of
  /// candidates per generation and never look at per-component power.
  [[nodiscard]] std::vector<double> predict_total_batch(
      std::span<const EvalContext> ctxs) const;

  /// Per-window total power for a time-based power trace: exactly
  /// predict_total_batch(windows).
  [[nodiscard]] std::vector<double> predict_trace(
      std::span<const EvalContext> windows) const;

  // Per-component group models, for the Fig. 7 / Fig. 8 studies.
  [[nodiscard]] const ClockPowerModel& clock_model(
      arch::ComponentKind c) const;
  [[nodiscard]] const SramPowerModel& sram_model(
      arch::ComponentKind c) const;
  [[nodiscard]] const LogicPowerModel& logic_model(
      arch::ComponentKind c) const;

  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Content fingerprint of this model's serialized archive (16 hex chars),
  /// set by train() and load().  Equal fingerprints mean byte-identical
  /// archives, so the serving layer keys every memo on it: two models — or
  /// two versions of one model across a hot-swap — can never alias cache
  /// entries.  Empty only for a default-constructed, untrained model.
  [[nodiscard]] const std::string& fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Serializes the fully-trained model (all 22 x 3 sub-models).
  void save(std::ostream& out) const;
  /// Restores a model previously written by save().
  void load(std::istream& in);
  /// File-based convenience wrappers.
  void save_to_file(const std::string& path) const;
  void load_from_file(const std::string& path);

 private:
  AutoPowerOptions options_;
  std::array<ClockPowerModel, arch::kNumComponents> clock_;
  std::array<SramPowerModel, arch::kNumComponents> sram_;
  std::array<LogicPowerModel, arch::kNumComponents> logic_;
  bool trained_ = false;
  std::string fingerprint_;

  void refresh_fingerprint();
};

}  // namespace autopower::core

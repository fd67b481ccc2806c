// The one batched evaluator behind run_sweep, evaluate_configs (explore's
// verification) and the BatchEngine's memo misses.  AutoPower's decoupled
// model is cheap per row but expensive per call — each context walks
// 22 components x every clock/SRAM/logic sub-model — so cells are
// evaluated as a list: build each cell's context inside its own
// try/catch (a cell that throws fails alone), then one batched predict
// over the cells that built cleanly, each result written to its slot.
// The batched model calls are element-wise bit-identical to the
// single-context ones, so results do not depend on batch size or split.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "core/autopower.hpp"
#include "power/report.hpp"

namespace autopower::serve {

struct CellResult {
  bool ok = false;
  std::string error;         ///< set when !ok
  double total_mw = 0.0;     ///< predicted average power (0 when !ok)
  double ipc = 0.0;          ///< simulated IPC (0 when !ok)
  power::PowerResult power;  ///< per-component prediction (breakdown only)
};

/// Fills cell i's context (simulate, or a cache lookup), or throws to
/// fail that cell alone.
using ContextBuilder =
    std::function<void(std::size_t i, core::EvalContext& ctx)>;

/// Largest predict call.  Per-row cost stops falling at ~64 rows, so the
/// cap costs no speed and bounds the context scratch to ~128 KiB.
inline constexpr std::size_t kMaxBatchCells = 256;

/// Evaluates out.size() cells: predict_total_batch (predict_batch with
/// `breakdown`) over every cell whose `build` succeeded, per
/// kMaxBatchCells slice.  A predict failure fails that slice's cells.
void evaluate_cells(const core::AutoPowerModel& model,
                    const ContextBuilder& build, std::span<CellResult> out,
                    bool breakdown = false);

}  // namespace autopower::serve

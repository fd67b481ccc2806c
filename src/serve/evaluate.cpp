#include "serve/evaluate.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "arch/events.hpp"

namespace autopower::serve {

void evaluate_cells(const core::AutoPowerModel& model,
                    const ContextBuilder& build, std::span<CellResult> out,
                    bool breakdown) {
  std::vector<core::EvalContext> ctxs;
  std::vector<std::size_t> slots;  // ctxs[k] is cell slots[k]'s context
  // Reserved up front, so the push_backs below never throw.
  ctxs.reserve(std::min(out.size(), kMaxBatchCells));
  slots.reserve(ctxs.capacity());
  for (std::size_t begin = 0; begin < out.size(); begin += kMaxBatchCells) {
    ctxs.clear();
    slots.clear();
    for (std::size_t i = begin;
         i < std::min(out.size(), begin + kMaxBatchCells); ++i) {
      out[i] = CellResult{};
      try {
        core::EvalContext ctx;
        build(i, ctx);
        ctxs.push_back(std::move(ctx));
        slots.push_back(i);
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
    }
    if (ctxs.empty()) continue;
    try {
      std::vector<power::PowerResult> results;
      std::vector<double> totals;
      if (breakdown) {
        results = model.predict_batch(ctxs);
      } else {
        totals = model.predict_total_batch(ctxs);
      }
      for (std::size_t k = 0; k < slots.size(); ++k) {
        CellResult& cell = out[slots[k]];
        cell.ok = true;
        cell.ipc = ctxs[k].events.rate(arch::EventKind::kInstructions);
        if (breakdown) {
          cell.total_mw = results[k].total();
          cell.power = std::move(results[k]);
        } else {
          cell.total_mw = totals[k];
        }
      }
    } catch (const std::exception& e) {
      for (const std::size_t i : slots) out[i].error = e.what();
    }
  }
}

}  // namespace autopower::serve

// The three benchmark workloads.  Each runs only the stages it exists
// for, fills `result` (phases, digests, correctness, end-to-end metrics)
// and, when `tracer` is enabled, also runs its traced pass and fills the
// per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_dse_sweep(const Options& opts, Tracer& tracer, RunResult& result);
void run_paper_flow(const Options& opts, Tracer& tracer, RunResult& result);
void run_serve_mix(const Options& opts, Tracer& tracer, RunResult& result);

}  // namespace perfbench

// Fork-join fan-out: the one place the library decides how many worker
// threads an operation uses and what a lost worker means.
//
// Every parallel caller (training's 66 sub-model fits, sweep shards,
// batch requests, explore scoring chunks, the CLI's held-out evaluate)
// hands out independent items to a fixed set of workers it sizes with
// worker_count() and runs with run_workers().  Each caller writes one
// worker body that claims its own items, so the same code runs at every
// thread count and results cannot depend on it.
//
// Fault sites (util/fault.hpp; the names are kept from the worker pool
// this helper replaced, so the documented site registry is unchanged):
// "util.thread_pool.submit" fires before each extra thread is started
// and stands in for a failure to create a thread;
// "util.thread_pool.run_task" fires at the start of each worker body.
#pragma once

#include <cstddef>
#include <functional>

namespace autopower::util {

/// `requested` clamped to [1, min(hardware_concurrency, items)]: never
/// more workers than cores or than items to hand out, never zero.
[[nodiscard]] std::size_t worker_count(std::size_t requested,
                                       std::size_t items) noexcept;

/// Runs body(0) on the calling thread and body(1) .. body(n - 1) on
/// their own std::threads (n == 0 counts as 1).  Joins every thread it
/// started — also when starting one fails — and then rethrows the
/// exception of the lowest-numbered worker that threw (or failed to
/// start), with its original type.  Workers that did not throw have
/// run to completion by then, so callers whose workers claim items from
/// a shared counter lose no item to a worker that died.
void run_workers(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace autopower::util

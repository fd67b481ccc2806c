#include "serve/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <exception>
#include <limits>
#include <ostream>
#include <utility>

#include "arch/events.hpp"
#include "serve/checkpoint.hpp"
#include "serve/jsonl.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {

std::string_view to_string(SweepMetric metric) noexcept {
  switch (metric) {
    case SweepMetric::kIpcPerWatt: return "ipc_per_watt";
    case SweepMetric::kIpc: return "ipc";
    case SweepMetric::kPower: return "power";
  }
  return "ipc_per_watt";
}

SweepMetric sweep_metric_from_string(std::string_view text) {
  if (text == "ipc_per_watt") return SweepMetric::kIpcPerWatt;
  if (text == "ipc") return SweepMetric::kIpc;
  if (text == "power") return SweepMetric::kPower;
  throw util::InvalidArgument("unknown sweep metric: " + std::string(text) +
                              " (expected ipc_per_watt | ipc | power)");
}

namespace {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const std::size_t pos = text.find(sep);
    out.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return out;
}

void append_int(std::string& out, long long value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

std::vector<SweepAxis> parse_grid(std::string_view spec) {
  AP_REQUIRE(!spec.empty(), "empty grid spec");
  std::vector<SweepAxis> axes;
  for (std::string_view axis_text : split(spec, ';')) {
    AP_REQUIRE(!axis_text.empty(), "empty axis in grid spec");
    const std::size_t eq = axis_text.find('=');
    AP_REQUIRE(eq != std::string_view::npos,
               "grid axis needs Param=v1,v2,...: " + std::string(axis_text));
    SweepAxis axis;
    axis.param = arch::hw_param_by_name(axis_text.substr(0, eq));
    for (const SweepAxis& existing : axes) {
      AP_REQUIRE(existing.param != axis.param,
                 "duplicate grid axis: " +
                     std::string(arch::hw_param_name(axis.param)));
    }
    for (std::string_view token : split(axis_text.substr(eq + 1), ',')) {
      axis.values.push_back(
          util::parse_int(token, "grid value", 1, 99999999));
    }
    AP_REQUIRE(!axis.values.empty(), "grid axis has no values: " +
                                         std::string(axis_text));
    axes.push_back(std::move(axis));
  }
  return axes;
}

GridCursor::GridCursor(const arch::HardwareConfig& base,
                       std::span<const SweepAxis> axes)
    : base_name_(base.name()), axes_(axes.begin(), axes.end()) {
  AP_REQUIRE(axes_.size() <= arch::kNumHwParams,
             "grid has more axes than hardware parameters");
  for (arch::HwParam p : arch::all_hw_params()) {
    base_values_[static_cast<std::size_t>(p)] = base.value(p);
  }
  for (const SweepAxis& axis : axes_) {
    AP_REQUIRE(!axis.values.empty(), "grid axis has no values");
    AP_REQUIRE(
        total_ <= std::numeric_limits<std::size_t>::max() /
                      axis.values.size(),
        "grid size overflows std::size_t");
    total_ *= axis.values.size();
  }
}

void GridCursor::values_at(std::size_t index,
                           std::array<int, arch::kNumHwParams>& values) const {
  values = base_values_;
  // Mixed-radix decode, last axis fastest (the first axis varies
  // slowest).
  std::size_t n = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const SweepAxis& axis = axes_[a];
    values[static_cast<std::size_t>(axis.param)] =
        axis.values[n % axis.values.size()];
    n /= axis.values.size();
  }
}

void GridCursor::format_name(std::size_t index, std::string& name) const {
  // Axis digits in forward (name) order; ctor capped axes at
  // kNumHwParams so a stack array suffices.
  std::array<std::size_t, arch::kNumHwParams> digit{};
  std::size_t n = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    digit[a] = n % axes_[a].values.size();
    n /= axes_[a].values.size();
  }
  name.clear();
  name += base_name_;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    name += '+';
    name += arch::hw_param_name(axes_[a].param);
    name += '=';
    append_int(name, axes_[a].values[digit[a]]);
  }
}

arch::HardwareConfig GridCursor::config_at(std::size_t index) const {
  std::array<int, arch::kNumHwParams> values{};
  values_at(index, values);
  std::string name;
  format_name(index, name);
  return arch::HardwareConfig(std::move(name), values);
}

namespace {

SweepCell evaluate_cell(const core::AutoPowerModel& model,
                        const sim::PerfSimulator& sim,
                        const arch::HardwareConfig& cfg,
                        const workload::WorkloadProfile& profile,
                        const workload::ProgramFeatures& program) {
  SweepCell cell;
  cell.workload = profile.name;
  try {
    core::EvalContext ctx;
    ctx.cfg = &cfg;
    ctx.workload = profile.name;
    ctx.program = program;
    ctx.events = sim.simulate(cfg, profile);
    cell.total_mw = model.predict_total(ctx);
    cell.ipc = ctx.events.rate(arch::EventKind::kInstructions);
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.ok = false;
    cell.error = e.what();
  }
  return cell;
}

/// Fills one named config's cells and summary means.  Shared by the
/// streaming sweep workers and evaluate_configs so both paths produce
/// bit-identical rows for the same configuration.
void fill_row(const core::AutoPowerModel& model,
              const sim::PerfSimulator& sim, SweepRow& row,
              const std::vector<const workload::WorkloadProfile*>& profiles,
              const std::vector<workload::ProgramFeatures>& programs,
              util::Counter& m_cells, util::Counter& m_failed,
              util::Histogram& m_cell_latency) {
  const std::size_t n_workloads = profiles.size();
  row.cells.clear();
  row.cells.reserve(n_workloads);
  double mw = 0.0, ipc = 0.0;
  std::size_t ok = 0;
  for (std::size_t j = 0; j < n_workloads; ++j) {
    SweepCell cell;
    {
      util::ScopedTimer timer(m_cell_latency);
      cell = evaluate_cell(model, sim, row.config, *profiles[j],
                           programs[j]);
    }
    m_cells.inc();
    if (cell.ok) {
      mw += cell.total_mw;
      ipc += cell.ipc;
      ++ok;
    } else {
      m_failed.inc();
    }
    row.cells.push_back(std::move(cell));
  }
  row.failed = n_workloads - ok;
  row.mean_total_mw = 0.0;
  row.mean_ipc = 0.0;
  row.ipc_per_watt = 0.0;
  if (ok > 0) {
    row.mean_total_mw = mw / static_cast<double>(ok);
    row.mean_ipc = ipc / static_cast<double>(ok);
    if (row.mean_total_mw > 0.0) {
      row.ipc_per_watt = row.mean_ipc / (row.mean_total_mw / 1000.0);
    }
  }
}

/// Metric under which a row sorts; larger is always better (power is
/// negated).  Rows with no successful cell sort last.
double row_score(const SweepRow& row, SweepMetric metric) {
  if (row.failed == row.cells.size()) {
    return -std::numeric_limits<double>::infinity();
  }
  switch (metric) {
    case SweepMetric::kIpcPerWatt: return row.ipc_per_watt;
    case SweepMetric::kIpc: return row.mean_ipc;
    case SweepMetric::kPower: return -row.mean_total_mw;
  }
  return row.ipc_per_watt;
}

/// The report's total order: metric score descending, grid index
/// ascending as the deterministic tie-break — equivalent to the former
/// stable_sort over grid-ordered rows, but independent of which worker
/// produced a row and in which steal order.
bool row_better(const SweepRow& a, const SweepRow& b, SweepMetric metric) {
  const double sa = row_score(a, metric);
  const double sb = row_score(b, metric);
  if (sa != sb) return sa > sb;
  return a.index < b.index;
}

/// Bounded best-K collector: a min-heap (front = worst kept row) under
/// row_better, so a streaming sweep holds K rows per worker instead of
/// the whole grid.  k == 0 keeps everything (report-all mode).
class TopKRanker {
 public:
  TopKRanker(std::size_t k, SweepMetric metric) : k_(k), metric_(metric) {}

  void offer(SweepRow&& row) {
    if (k_ == 0) {
      rows_.push_back(std::move(row));
      return;
    }
    const auto worst_first = [this](const SweepRow& a, const SweepRow& b) {
      return row_better(a, b, metric_);
    };
    if (rows_.size() < k_) {
      rows_.push_back(std::move(row));
      std::push_heap(rows_.begin(), rows_.end(), worst_first);
      return;
    }
    if (!row_better(row, rows_.front(), metric_)) return;
    std::pop_heap(rows_.begin(), rows_.end(), worst_first);
    rows_.back() = std::move(row);
    std::push_heap(rows_.begin(), rows_.end(), worst_first);
  }

  /// Kept rows, heap-ordered (callers sort the merged result).
  std::vector<SweepRow>& rows() { return rows_; }

 private:
  std::size_t k_;
  SweepMetric metric_;
  std::vector<SweepRow> rows_;
};

/// One worker's contiguous slice of grid indices.  `next` is the claim
/// cursor (CAS'd forward one chunk at a time — by the owner or by a
/// thief); cache-line aligned so claims on different shards never false
/// share.
struct alignas(64) WorkerShard {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
};

/// Claims one chunk [begin, end) from `shard`; false when drained.  The
/// CAS (rather than fetch_add) means a claim never overshoots `end`, so
/// thieves and owner agree exactly on who evaluates what.
bool claim_chunk(WorkerShard& shard, std::size_t chunk, std::size_t& begin,
                 std::size_t& end) {
  std::size_t cur = shard.next.load(std::memory_order_relaxed);
  while (cur < shard.end) {
    const std::size_t hi = std::min(cur + chunk, shard.end);
    if (shard.next.compare_exchange_weak(cur, hi,
                                         std::memory_order_relaxed)) {
      begin = cur;
      end = hi;
      return true;
    }
  }
  return false;
}

}  // namespace

SweepReport run_sweep(const core::AutoPowerModel& model, const SweepSpec& spec,
                      std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!spec.workloads.empty(), "sweep needs at least one workload");
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "sweep resume needs a checkpoint path");
  const arch::HardwareConfig& base = arch::boom_config(spec.base);
  const GridCursor cursor(base, spec.axes);
  const std::size_t n_configs = cursor.size();
  const std::size_t n_workloads = spec.workloads.size();

  // Resolve workloads up front: an unknown name is a spec error (it would
  // fail every cell), unlike a bad grid point which fails alone.
  std::vector<const workload::WorkloadProfile*> profiles;
  std::vector<workload::ProgramFeatures> programs;
  profiles.reserve(n_workloads);
  for (const std::string& name : spec.workloads) {
    profiles.push_back(&workload::workload_by_name(name));
    programs.push_back(workload::program_features(*profiles.back()));
  }

  if (structural == nullptr) {
    // --memory-budget sizes the shared L2 tier; entries are ~64 B
    // apiece, with a floor so tiny budgets still cache something.
    std::size_t max_entries = 0;
    if (spec.memory_budget > 0) {
      max_entries = std::max<std::size_t>(
          1024, static_cast<std::size_t>(
                    spec.memory_budget /
                    util::StructuralSimCache::kApproxEntryBytes));
    }
    structural =
        std::make_shared<util::StructuralSimCache>(/*shards_per_sub=*/8,
                                                   max_entries);
  }
  const util::StructuralSimCache::Stats before = structural->stats();

  // Checkpoint replay + writer.  Replayed indices are marked done before
  // any worker starts, so `done` is read-only while they run.
  std::vector<SweepRow> resumed_rows;
  std::vector<std::uint8_t> done;
  std::unique_ptr<CheckpointWriter> checkpoint;
  if (!spec.checkpoint.empty()) {
    const std::string fingerprint =
        sweep_fingerprint(spec.base, spec.axes, spec.workloads,
                          model.fingerprint());
    std::uint64_t keep_bytes = 0;
    if (spec.resume) {
      CheckpointReplay replay = load_checkpoint(spec.checkpoint, fingerprint,
                                                n_configs, n_workloads);
      keep_bytes = replay.valid_bytes;
      resumed_rows = std::move(replay.rows);
      if (!resumed_rows.empty()) {
        done.assign(n_configs, 0);
        for (const SweepRow& row : resumed_rows) done[row.index] = 1;
      }
    }
    checkpoint = std::make_unique<CheckpointWriter>(
        spec.checkpoint, fingerprint, n_configs, n_workloads, keep_bytes);
  }

  // Process-wide instruments; the cells counter is what the CLI's
  // --progress monitor polls while the sweep runs.
  auto& registry = util::MetricsRegistry::global();
  auto& m_cells = registry.counter("serve.sweep.cells");
  auto& m_failed = registry.counter("serve.sweep.cells_failed");
  auto& m_cell_latency = registry.histogram("serve.sweep.cell_latency_ns");
  auto& m_chunks = registry.counter("serve.sweep.chunks");
  auto& m_stolen = registry.counter("serve.sweep.chunks_stolen");
  const auto sweep_start = std::chrono::steady_clock::now();

  const std::size_t workers = util::worker_count(spec.threads, n_configs);

  // Contiguous per-worker shards + per-chunk work stealing: a worker
  // drains its own shard in chunks, then scans the others and steals
  // chunks from whatever is left, so one expensive region of the grid
  // cannot idle the other workers.
  const auto shards = std::make_unique<WorkerShard[]>(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    shards[w].next.store(n_configs * w / workers,
                         std::memory_order_relaxed);
    shards[w].end = n_configs * (w + 1) / workers;
  }
  const std::size_t chunk =
      std::clamp<std::size_t>(n_configs / (workers * 8), 1, 1024);

  std::vector<TopKRanker> rankers(workers,
                                  TopKRanker(spec.top, spec.metric));

  const auto worker_loop = [&](std::size_t w) {
    sim::PerfSimulator sim(sim::SimOptions{}, structural);
    TopKRanker& ranker = rankers[w];
    std::string name_scratch;
    std::string json_scratch;
    std::array<int, arch::kNumHwParams> values_scratch{};

    const auto evaluate_config = [&](std::size_t index) {
      if (!done.empty() && done[index]) return;  // replayed from checkpoint
      SweepRow row;
      row.index = index;
      cursor.values_at(index, values_scratch);
      cursor.format_name(index, name_scratch);
      row.config = arch::HardwareConfig(name_scratch, values_scratch);
      fill_row(model, sim, row, profiles, programs, m_cells, m_failed,
               m_cell_latency);
      if (checkpoint != nullptr) {
        json_scratch.clear();
        append_row_json(json_scratch, row);
        checkpoint->append(index, json_scratch);
      }
      ranker.offer(std::move(row));
    };

    // Own shard first, then one pass over the victims: a shard's cursor
    // only moves forward, so a shard found drained stays drained.
    for (std::size_t off = 0; off < workers; ++off) {
      WorkerShard& shard = shards[(w + off) % workers];
      std::size_t begin = 0, end = 0;
      while (claim_chunk(shard, chunk, begin, end)) {
        m_chunks.inc();
        if (off != 0) m_stolen.inc();
        for (std::size_t i = begin; i < end; ++i) evaluate_config(i);
      }
    }
  };

  // A worker lost to an exception leaves its shard to be stolen, but the
  // sweep is still incomplete (possibly with unwritten checkpoint rows),
  // so run_workers rethrows rather than let a partial grid be ranked.
  util::run_workers(workers, worker_loop);
  if (checkpoint != nullptr) checkpoint->close();

  SweepReport report;
  report.configs = n_configs;
  report.evaluations = n_configs * n_workloads;
  report.resumed = resumed_rows.size();
  {
    const util::StructuralSimCache::Stats after = structural->stats();
    report.structural = {after.hits - before.hits,
                         after.misses - before.misses,
                         after.evictions - before.evictions};
  }
  if (util::MetricsRegistry::enabled()) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    registry.gauge("serve.sweep.cells_per_sec")
        .set(elapsed > 0.0 ? static_cast<double>(report.evaluations) /
                                 elapsed
                           : 0.0);
    structural->export_metrics(registry);
  }

  // Merge: replayed rows and every worker's kept rows through one final
  // bounded ranker, then a full sort of the K (or all) survivors.  The
  // (score, grid index) order is a total order over distinct indices, so
  // the outcome is independent of thread count and steal schedule.
  TopKRanker merged(spec.top, spec.metric);
  for (SweepRow& row : resumed_rows) merged.offer(std::move(row));
  resumed_rows.clear();
  for (TopKRanker& ranker : rankers) {
    for (SweepRow& row : ranker.rows()) merged.offer(std::move(row));
  }
  report.rows = std::move(merged.rows());
  std::sort(report.rows.begin(), report.rows.end(),
            [&spec](const SweepRow& a, const SweepRow& b) {
              return row_better(a, b, spec.metric);
            });
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    report.rows[i].rank = i + 1;
  }
  return report;
}

std::vector<SweepRow> evaluate_configs(
    const core::AutoPowerModel& model,
    std::span<const arch::HardwareConfig> configs,
    std::span<const std::string> workloads, std::size_t threads,
    std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!workloads.empty(),
             "evaluate_configs needs at least one workload");
  std::vector<const workload::WorkloadProfile*> profiles;
  std::vector<workload::ProgramFeatures> programs;
  profiles.reserve(workloads.size());
  for (const std::string& name : workloads) {
    profiles.push_back(&workload::workload_by_name(name));
    programs.push_back(workload::program_features(*profiles.back()));
  }
  if (structural == nullptr) {
    structural =
        std::make_shared<util::StructuralSimCache>(/*shards_per_sub=*/8,
                                                   /*max_entries=*/0);
  }
  auto& registry = util::MetricsRegistry::global();
  auto& m_cells = registry.counter("serve.sweep.cells");
  auto& m_failed = registry.counter("serve.sweep.cells_failed");
  auto& m_cell_latency = registry.histogram("serve.sweep.cell_latency_ns");

  std::vector<SweepRow> rows(configs.size());
  if (configs.empty()) return rows;

  // Results land at their input index, so the output order (and every
  // byte of it) is independent of the claim schedule.
  std::atomic<std::size_t> next{0};
  const auto worker_loop = [&](std::size_t) {
    sim::PerfSimulator sim(sim::SimOptions{}, structural);
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < configs.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      SweepRow& row = rows[i];
      row.index = i;
      row.config = configs[i];
      fill_row(model, sim, row, profiles, programs, m_cells, m_failed,
               m_cell_latency);
    }
  };
  util::run_workers(util::worker_count(threads, configs.size()), worker_loop);
  return rows;
}

void append_row_json(std::string& out, const SweepRow& row) {
  out += "\"config\":\"";
  out += json_escape(row.config.name());
  out += "\",\"params\":{";
  bool first = true;
  for (arch::HwParam p : arch::all_hw_params()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += arch::hw_param_name(p);
    out += "\":";
    append_int(out, row.config.value(p));
  }
  out += "},\"mean_total_mw\":";
  out += json_number(row.mean_total_mw);
  out += ",\"mean_ipc\":";
  out += json_number(row.mean_ipc);
  out += ",\"ipc_per_watt\":";
  out += json_number(row.ipc_per_watt);
  out += ",\"failed\":";
  append_int(out, static_cast<long long>(row.failed));
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < row.cells.size(); ++i) {
    const SweepCell& cell = row.cells[i];
    if (i > 0) out += ',';
    out += "{\"workload\":\"";
    out += json_escape(cell.workload);
    out += "\",\"ok\":";
    out += cell.ok ? "true" : "false";
    if (cell.ok) {
      out += ",\"total_mw\":";
      out += json_number(cell.total_mw);
      out += ",\"ipc\":";
      out += json_number(cell.ipc);
    } else {
      out += ",\"error\":\"";
      out += json_escape(cell.error);
      out += '"';
    }
    out += '}';
  }
  out += ']';
}

void write_sweep_report(std::ostream& out, const SweepReport& report) {
  std::string line;
  for (const SweepRow& row : report.rows) {
    // Stream-flavoured fault: latches badbit like a full disk, caught by
    // the caller's flush_and_check — a torn report must exit non-zero.
    AUTOPOWER_FAULT_STREAM("serve.report.write_row", out);
    line.clear();
    line += "{\"rank\":";
    append_int(line, static_cast<long long>(row.rank));
    line += ',';
    append_row_json(line, row);
    line += "}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

}  // namespace autopower::serve

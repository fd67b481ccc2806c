// perfbench: the repository's fixed-work benchmark program.
//
//   perfbench --workload dse_sweep|paper_flow|serve_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Prints one detail line (host facts, per-phase failure accounting,
// output digests, workload-specific figures, failed checks) and, as the
// last line, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  A traced run also writes its spans to
// DIR/spans-<workload>-seed<N>.jsonl.  perfbench/run.py builds this
// binary and is the entry point BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.hpp"
#include "serve/jsonl.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

// Metric names and units, in BENCHMARK.json order.  A metric a workload
// does not exercise reports 0 (the layer did no work on that workload).
const Metric kEndToEnd[] = {
    {"setup_s", 0, "s"},
    {"peak_rss_mib", 0, "MiB"},
    {"stage_a_s", 0, "s"},
    {"stage_b_s", 0, "s"},
};

const Metric kPerLayer[] = {
    {"sim.simulate_us", 0, "us"},
    {"sim.structural.l1_hit_ratio", 0, "ratio"},
    {"sim.structural.l1_lookups", 0, "count"},
    {"sim.structural.l2_hit_ratio", 0, "ratio"},
    {"sim.structural.l2_lookups", 0, "count"},
    {"sim.trace_us_per_window", 0, "us"},
    {"core.context_us", 0, "us"},
    {"core.predict_total_us", 0, "us"},
    {"core.predict_batch_us_per_row", 0, "us"},
    {"core.train_s", 0, "s"},
    {"ml.gbt.predict_rows_per_cell", 0, "count"},
    {"ml.gbt.fit_rows", 0, "count"},
    {"ml.gbt.fit_s", 0, "s"},
    {"power.golden_us_per_sample", 0, "us"},
    {"exp.dataset_build_s", 0, "s"},
    {"serve.sweep.cell_us", 0, "us"},
    {"serve.sweep.chunks_stolen", 0, "count"},
    {"explore.generation_us", 0, "us"},
    {"explore.score_us_per_candidate", 0, "us"},
    {"explore.verify_us_per_cell", 0, "us"},
    {"explore.candidates_scored", 0, "count"},
    {"explore.verified_cells", 0, "count"},
    {"serve.engine.run_us", 0, "us"},
    {"serve.engine.batch_size", 0, "count"},
    {"serve.response_memo.hit_ratio", 0, "ratio"},
    {"serve.eval_cache.hit_ratio", 0, "ratio"},
    {"serve.jsonl.parse_us", 0, "us"},
    {"serve.jsonl.serialize_us", 0, "us"},
    {"serve.daemon.wire_us", 0, "us"},
    {"serve.daemon.queue_wait_us", 0, "us"},
    {"serve.daemon.cold_p99_us", 0, "us"},
    {"serve.daemon.cold_p99_samples", 0, "count"},
    {"serve.daemon.warm_p99_us", 0, "us"},
    {"serve.daemon.warm_p99_samples", 0, "count"},
    {"util.threads", 0, "count"},
    {"util.simd.tier", 0, "tier"},
    {"bench.trace_overhead_pct", 0, "%"},
};

std::string num(double v) { return autopower::serve::json_number(v); }

std::string str(std::string_view s) {
  return "\"" + autopower::serve::json_escape(s) + "\"";
}

std::string metrics_json(const Metric* table, std::size_t n,
                         const std::vector<Metric>& measured) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    double value = 0.0;
    for (const Metric& m : measured) {
      if (m.name == table[i].name) value = m.value;
    }
    if (i > 0) out += ", ";
    out += str(table[i].name) + ": {\"value\": " + num(value) +
           ", \"unit\": " + str(table[i].unit) + "}";
  }
  return out + "}";
}

std::string detail_json(const perfbench::Options& opts,
                        const perfbench::RunResult& r) {
  std::string out = "{\"detail\": {\"workload\": " + str(opts.workload) +
                    ", \"seed\": " + std::to_string(opts.seed) +
                    ", \"seconds\": " + std::to_string(opts.seconds) +
                    ", \"trace\": " + (opts.trace ? "true" : "false") +
                    ", \"host\": " + perfbench::host_facts_json(opts) +
                    ", \"phases\": [";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    const auto& p = r.phases[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + str(p.name) +
           ", \"attempted\": " + std::to_string(p.attempted) +
           ", \"succeeded\": " + std::to_string(p.succeeded) +
           ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  out += "], \"digests\": {";
  bool first = true;
  for (const auto& [name, digest] : r.digests) {
    if (!first) out += ", ";
    first = false;
    out += str(name) + ": " + str(digest);
  }
  out += "}, \"figures\": {";
  for (std::size_t i = 0; i < r.figures.size(); ++i) {
    if (i > 0) out += ", ";
    out += str(r.figures[i].name) + ": {\"value\": " + num(r.figures[i].value) +
           ", \"unit\": " + str(r.figures[i].unit) + "}";
  }
  out += "}, \"samples\": {";
  first = true;
  for (const auto& [name, values] : r.samples) {
    if (!first) out += ", ";
    first = false;
    out += str(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + num(values[i]);
    }
    out += "]";
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += str(r.errors[i]);
  }
  return out + "]}}";
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dse_sweep|paper_flow|serve_mix --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atoi(value);
    } else if (arg == "--trace") {
      opts.trace = std::string_view(value) == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--commit") {
      opts.commit = value;
    } else {
      return usage("unknown option");
    }
  }
  if (opts.seconds < 1) return usage("--seconds must be at least 1");

  perfbench::Tracer tracer(opts.trace);
  perfbench::RunResult result;
  try {
    if (opts.workload == "dse_sweep") {
      perfbench::run_dse_sweep(opts, tracer, result);
    } else if (opts.workload == "paper_flow") {
      perfbench::run_paper_flow(opts, tracer, result);
    } else if (opts.workload == "serve_mix") {
      perfbench::run_serve_mix(opts, tracer, result);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opts.trace) {
    result.layers.push_back(
        {"util.threads", static_cast<double>(perfbench::worker_threads()), "count"});
    result.layers.push_back(
        {"util.simd.tier",
         perfbench::RegistrySnapshot::global().gauge("util.simd.tier"), "tier"});
    std::filesystem::create_directories(opts.out_dir);
    tracer.write(opts.out_dir + "/spans-" + opts.workload + "-seed" +
                 std::to_string(opts.seed) + ".jsonl");
  }

  std::printf("%s\n", detail_json(opts, result).c_str());
  const std::string metrics =
      opts.trace ? metrics_json(kPerLayer, std::size(kPerLayer), result.layers)
                 : metrics_json(kEndToEnd, std::size(kEndToEnd), result.end_to_end);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()), metrics.c_str());
  return 0;
}

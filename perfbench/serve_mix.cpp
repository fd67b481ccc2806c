// serve_mix: a DSE client queries the resident daemon.
//
//   setup    train two models on distinct known sets (distinct
//            fingerprints), save their archives, start an in-process
//            serve::Daemon with two named slots, connect the client
//   stage a  cold phase on a fresh daemon: every key (model, Table II
//            config, workload, mode in {total, per_component}) exactly
//            once, in seeded order, on every fresh daemon
//   stage b  warm phase: then one block of seeded Zipf repeats of those
//            keys on the same daemon, every one a response-memo hit;
//            all blocks have identical cost
//
// Load is a closed loop from one client thread on two loopback
// connections with a fixed number of requests outstanding.  Every
// response line is checked against serve::response_to_jsonl over a
// fresh in-process BatchEngine.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "power/golden.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/jsonl.hpp"
#include "serve/net.hpp"
#include "sim/perfsim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace autopower;

constexpr std::size_t kModels = 2;               ///< known sets k = 2, 3
constexpr std::size_t kSetupRepsPerMinute = 20;  ///< full set-ups
constexpr std::size_t kRepsPerMinute = 72;       ///< fresh daemons
constexpr std::size_t kWarmBlockRequests = 2500;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kOutstanding = 16;  ///< requests in flight, total
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kReplayKeys = 64;
constexpr int kPollTimeoutMs = 30000;

struct Key {
  std::size_t model = 0;
  serve::BatchRequest request;
  std::string line;  ///< the daemon request line
};

std::string slot_name(std::size_t model) { return "k" + std::to_string(model + 2); }

std::vector<Key> make_keys(util::Rng& rng) {
  std::vector<std::string> workloads;
  for (const auto& w : workload::riscv_tests_workloads()) workloads.push_back(w.name);
  for (const auto& w : workload::extension_workloads()) workloads.push_back(w.name);
  std::vector<Key> keys;
  for (std::size_t m = 0; m < kModels; ++m) {
    for (const auto& cfg : arch::boom_design_space()) {
      for (const auto& w : workloads) {
        for (const auto mode :
             {serve::PredictMode::kTotal, serve::PredictMode::kPerComponent}) {
          Key key;
          key.model = m;
          key.request = {cfg.name(), w, mode};
          key.line = "{\"config\": \"" + cfg.name() + "\", \"workload\": \"" + w +
                     "\", \"mode\": \"" + std::string(serve::to_string(mode)) +
                     "\", \"model\": \"" + slot_name(m) + "\"}";
          keys.push_back(std::move(key));
        }
      }
    }
  }
  shuffle(keys, rng);
  return keys;
}

/// Digest of a response line's bytes after the per-connection "index"
/// member.
std::uint64_t hash_after_index(std::string_view line) {
  const std::size_t comma = line.find(',');
  return fnv1a(comma == std::string_view::npos ? line : line.substr(comma));
}

// ---- daemon lifecycle ------------------------------------------------

struct Fleet {
  std::vector<std::shared_ptr<const core::AutoPowerModel>> models;
  std::vector<serve::ModelSpec> specs;
};

Fleet train_fleet(const Options& opts, std::size_t threads, Tracer& tracer) {
  const sim::PerfSimulator sim;
  const power::GoldenPowerModel golden;
  exp::ExperimentData data;
  {
    auto s = tracer.span("exp.dataset_build");
    data = exp::ExperimentData::build(sim, golden);
  }
  const std::string dir = opts.out_dir + "/models";
  std::filesystem::create_directories(dir);
  Fleet fleet;
  for (std::size_t m = 0; m < kModels; ++m) {
    const auto ctxs = data.contexts_of(
        exp::ExperimentData::training_configs(static_cast<int>(m) + 2));
    auto model = std::make_shared<core::AutoPowerModel>();
    {
      auto s = tracer.span("core.train", ctxs.size());
      model->train(ctxs, golden, threads);
    }
    const std::string path = dir + "/" + slot_name(m) + ".ap";
    model->save_to_file(path);
    fleet.models.push_back(std::move(model));
    fleet.specs.push_back({slot_name(m), path});
  }
  return fleet;
}

struct ClientConn {
  serve::net::Socket sock;
  std::string buf;
  std::uint64_t recv_seq = 0;
  std::deque<std::pair<std::size_t, Clock::time_point>> inflight;
};

/// A running daemon plus the client's connections.  Stopping closes the
/// client side, drains the daemon, joins its thread and rethrows anything
/// serve() threw.
class Server {
 public:
  Server(const Fleet& fleet, std::size_t threads) {
    serve::DaemonOptions options;
    options.engine.threads = threads;
    daemon_ = std::make_unique<serve::Daemon>(fleet.specs, options);
    thread_ = std::thread([this] {
      try {
        daemon_->serve();
      } catch (...) {
        failure_ = std::current_exception();
      }
    });
    try {
      for (std::size_t c = 0; c < kConnections; ++c) {
        conns_.push_back({serve::net::connect_loopback(daemon_->port()), {}, 0, {}});
      }
    } catch (...) {
      daemon_->notify_stop();
      thread_.join();
      throw;
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (thread_.joinable()) {
      daemon_->notify_stop();
      thread_.join();
    }
  }

  void stop() {
    for (auto& c : conns_) c.sock.close();
    daemon_->notify_stop();
    thread_.join();
    if (failure_) std::rethrow_exception(failure_);
  }

  std::vector<ClientConn>& conns() { return conns_; }

 private:
  std::unique_ptr<serve::Daemon> daemon_;
  std::exception_ptr failure_;
  std::vector<ClientConn> conns_;
  std::thread thread_;  ///< last: it uses the members above
};

// ---- closed-loop client ------------------------------------------------

struct Sample {
  std::size_t key = 0;
  std::uint64_t hash = 0;
  bool index_ok = false;
  bool ok = false;
  double us = 0.0;
};

struct LoopRun {
  double seconds = 0.0;
  std::vector<Sample> samples;
  std::size_t unexpected = 0;  ///< lines with no request outstanding
};

/// Reads what is available on `conn` and hands every complete line to
/// `on_line`.  Throws when the daemon closed the connection.
template <typename Fn>
void read_lines(ClientConn& conn, Fn&& on_line) {
  char chunk[1 << 16];
  const ssize_t n = ::recv(conn.sock.fd(), chunk, sizeof chunk, 0);
  if (n <= 0) throw std::runtime_error("daemon closed a client connection");
  conn.buf.append(chunk, static_cast<std::size_t>(n));
  std::size_t pos = 0;
  for (std::size_t nl; (nl = conn.buf.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    on_line(std::string_view(conn.buf).substr(pos, nl - pos));
  }
  conn.buf.erase(0, pos);
}

LoopRun closed_loop(std::vector<ClientConn>& conns, const std::vector<Key>& keys,
                    const std::vector<std::size_t>& order) {
  LoopRun run;
  run.samples.reserve(order.size());
  const std::size_t per_conn = kOutstanding / conns.size();
  std::size_t next = 0;
  const auto send = [&](ClientConn& c) {
    const std::size_t k = order[next++];
    c.inflight.emplace_back(k, Clock::now());
    serve::net::write_line(c.sock.fd(), keys[k].line);
  };
  const auto start = Clock::now();
  for (auto& c : conns) {
    while (c.inflight.size() < per_conn && next < order.size()) send(c);
  }
  std::vector<pollfd> fds;
  std::vector<ClientConn*> polled;
  for (;;) {
    fds.clear();
    polled.clear();
    for (auto& c : conns) {
      if (c.inflight.empty()) continue;
      fds.push_back({c.sock.fd(), POLLIN, 0});
      polled.push_back(&c);
    }
    if (fds.empty()) break;
    if (::poll(fds.data(), fds.size(), kPollTimeoutMs) <= 0) {
      throw std::runtime_error("daemon did not answer within the poll timeout");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      ClientConn& c = *polled[i];
      read_lines(c, [&](std::string_view line) {
        const auto now = Clock::now();
        if (c.inflight.empty()) {
          ++run.unexpected;
          return;
        }
        const auto [k, sent] = c.inflight.front();
        c.inflight.pop_front();
        Sample s;
        s.key = k;
        s.us = std::chrono::duration<double, std::micro>(now - sent).count();
        constexpr std::string_view kIndex = "{\"index\": ";
        s.index_ok = line.substr(0, kIndex.size()) == kIndex &&
                     std::strtoull(line.data() + kIndex.size(), nullptr, 10) ==
                         c.recv_seq;
        ++c.recv_seq;
        s.hash = hash_after_index(line);
        s.ok = line.find(", \"ok\": true") != std::string_view::npos;
        run.samples.push_back(s);
        if (next < order.size()) send(c);
      });
    }
  }
  run.seconds = seconds_since(start);
  return run;
}

/// Sends one control line on an idle connection and returns its reply.
std::string control(ClientConn& c, std::string_view line) {
  serve::net::write_line(c.sock.fd(), line);
  std::string reply;
  bool got = false;
  while (!got) {
    read_lines(c, [&](std::string_view l) {
      reply = std::string(l);
      got = true;
    });
  }
  ++c.recv_seq;
  return reply;
}

RegistrySnapshot daemon_metrics(ClientConn& c) {
  const std::string reply = control(c, "{\"cmd\": \"metrics\"}");
  constexpr std::string_view kMember = "\"metrics\": ";
  const std::size_t at = reply.find(kMember);
  if (at == std::string::npos || reply.empty() || reply.back() != '}') {
    throw std::runtime_error("malformed metrics reply");
  }
  const std::size_t begin = at + kMember.size();
  return RegistrySnapshot::parse(
      std::string_view(reply).substr(begin, reply.size() - 1 - begin));
}

/// The warm phase's blocks.  Rank r of a Zipf(s) law over the keys gets a
/// fixed request count per block (largest-remainder rounding), so every
/// block holds the same multiset of ranks.  Ranks alternate between the
/// two modes, so the per_component share (the costly responses to
/// serialise) is the same for every seed; the seed permutes the keys
/// within each mode and shuffles each block's request order.
std::vector<std::vector<std::size_t>> warm_blocks(const std::vector<Key>& keys,
                                                  std::size_t blocks,
                                                  util::Rng& rng) {
  std::vector<std::size_t> by_mode[2];
  for (std::size_t k = 0; k < keys.size(); ++k) {
    by_mode[keys[k].request.mode == serve::PredictMode::kTotal ? 0 : 1].push_back(k);
  }
  for (auto& ids : by_mode) shuffle(ids, rng);
  std::vector<std::size_t> by_rank;
  for (std::size_t i = 0; i < by_mode[0].size(); ++i) {
    by_rank.push_back(by_mode[0][i]);
    by_rank.push_back(by_mode[1][i]);
  }
  std::vector<double> share(by_rank.size());
  double total = 0.0;
  for (std::size_t r = 0; r < share.size(); ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    total += share[r];
  }
  std::vector<std::size_t> count(share.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < share.size(); ++r) {
    const double exact = static_cast<double>(kWarmBlockRequests) * share[r] / total;
    count[r] = static_cast<std::size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(exact - static_cast<double>(count[r]), r);
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < kWarmBlockRequests; ++i, ++assigned) {
    ++count[remainder[i].second];
  }
  std::vector<std::size_t> base;
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    base.insert(base.end(), count[r], by_rank[r]);
  }
  std::vector<std::vector<std::size_t>> out(blocks, base);
  for (auto& block : out) shuffle(block, rng);
  return out;
}

/// Verifies every sample against the oracle; returns the failed count
/// (ok:false lines and lines nobody asked for).
std::uint64_t verify(const LoopRun& run, const std::vector<std::uint64_t>& expected,
                     const std::string& phase, RunResult& result) {
  std::size_t mismatches = 0;
  std::uint64_t failed = run.unexpected;
  for (const Sample& s : run.samples) {
    if (!s.ok) ++failed;
    if (!s.index_ok || s.hash != expected[s.key]) ++mismatches;
  }
  result.check(mismatches == 0, phase + ": " + std::to_string(mismatches) +
                                    " daemon responses differ from the in-process "
                                    "engine");
  result.check(run.unexpected == 0, phase + ": unexpected response lines");
  return failed;
}

/// Latencies with every failed request counted as missing the figure.
std::vector<double> latencies(const std::vector<LoopRun>& runs) {
  std::vector<double> us;
  for (const auto& run : runs) {
    for (const Sample& s : run.samples) {
      us.push_back(s.ok ? s.us : std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < run.unexpected; ++i) {
      us.push_back(std::numeric_limits<double>::infinity());
    }
  }
  return us;
}

double finite(double v) {
  return std::isfinite(v) ? v : std::numeric_limits<double>::max();
}

double hist_mean(const RegistrySnapshot& d, const std::string& name) {
  const double count = d.hist_count(name);
  return count == 0 ? 0.0 : d.hist_sum(name) / count;
}

double ratio(double hits, double misses) {
  return hits + misses == 0 ? 0.0 : hits / (hits + misses);
}

}  // namespace

void run_serve_mix(const Options& opts, Tracer& tracer, RunResult& result) {
  const std::size_t threads = worker_threads();
  util::Rng rng(util::hash_combine(opts.seed, util::hash_str("serve_mix")));
  Tracer off(false);
  const std::vector<Key> keys = make_keys(rng);
  std::vector<std::size_t> cold_order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) cold_order[i] = i;
  const auto blocks = warm_blocks(keys, reps_for(opts, kRepsPerMinute), rng);

  std::vector<double> setup_times;
  std::vector<LoopRun> cold_runs, warm_runs;
  Fleet fleet;
  // Every repetition starts a fresh daemon, runs the cold phase on it and
  // then one warm block, so both phases sample the host across the whole
  // run.  The first repetitions (fewer than all of them) also retrain the
  // models and are timed as set-ups; later ones start their daemon over
  // the archives already written.
  const std::size_t setup_reps = reps_for(opts, kSetupRepsPerMinute);
  std::vector<double> rss;
  for (std::size_t r = 0; r < blocks.size(); ++r) {
    if (r < setup_reps) fleet = Fleet{};
    release_free_memory();
    reset_peak_rss();
    const auto start = Clock::now();
    if (r < setup_reps) fleet = train_fleet(opts, threads, off);
    Server server(fleet, threads);
    if (r < setup_reps) setup_times.push_back(seconds_since(start));
    cold_runs.push_back(closed_loop(server.conns(), keys, cold_order));
    warm_runs.push_back(closed_loop(server.conns(), keys, blocks[r]));
    server.stop();
    rss.push_back(peak_rss_mib());
  }

  // Oracle: a fresh in-process engine per model over every key.
  std::vector<std::uint64_t> expected(keys.size());
  std::vector<serve::BatchResponse> oracle_responses;
  for (std::size_t m = 0; m < kModels; ++m) {
    std::vector<serve::BatchRequest> requests;
    std::vector<std::size_t> ids;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (keys[k].model != m) continue;
      requests.push_back(keys[k].request);
      ids.push_back(k);
    }
    serve::BatchEngine engine(fleet.models[m], {.threads = threads});
    auto responses = engine.run(requests);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      expected[ids[i]] = hash_after_index(serve::response_to_jsonl(responses[i]));
      oracle_responses.push_back(std::move(responses[i]));
    }
  }
  std::uint64_t cold_failed = 0, warm_failed = 0, warm_requests = 0;
  for (const auto& run : cold_runs) cold_failed += verify(run, expected, "cold", result);
  for (const auto& run : warm_runs) {
    warm_failed += verify(run, expected, "warm", result);
    warm_requests += run.samples.size() + run.unexpected;
  }
  // Digest of the first cold phase's response bytes, in key order.
  {
    std::vector<std::uint64_t> got(keys.size());
    for (const Sample& s : cold_runs.front().samples) got[s.key] = s.hash;
    std::uint64_t h = fnv1a("");
    for (const std::uint64_t v : got) h = fnv1a(hex64(v), h);
    result.digests["cold.responses"] = hex64(h);
  }
  result.add_phase("cold.requests", keys.size() * cold_runs.size(), cold_failed);
  result.add_phase("warm.requests", blocks.size() * kWarmBlockRequests, warm_failed);
  result.check(warm_requests == blocks.size() * kWarmBlockRequests,
               "warm phase answered " + std::to_string(warm_requests) + " lines");

  std::vector<double> cold_times, warm_times;
  for (const auto& run : cold_runs) cold_times.push_back(run.seconds);
  for (const auto& run : warm_runs) warm_times.push_back(run.seconds);
  result.samples["setup_s"] = setup_times;
  result.samples["stage_a_s"] = cold_times;
  result.samples["stage_b_s"] = warm_times;
  result.samples["peak_rss_mib"] = rss;
  const double stage_a = median(cold_times);
  const double stage_b = median(warm_times);
  const auto cold_us = latencies(cold_runs);
  const auto warm_us = latencies(warm_runs);
  // The smallest daemon-lifetime peak: each later daemon in this process
  // starts over heap arenas that earlier daemons' threads fragmented, so
  // the peaks creep upwards over a run by an amount that varies from run
  // to run.
  result.end_to_end = {
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mib", *std::min_element(rss.begin(), rss.end()), "MiB"},
      {"stage_a_s", stage_a, "s"},
      {"stage_b_s", stage_b, "s"},
  };
  result.figures = {
      {"serve_cold_req_per_s", static_cast<double>(keys.size()) / stage_a, "req/s"},
      {"serve_warm_req_per_s", static_cast<double>(kWarmBlockRequests) / stage_b,
       "req/s"},
      {"serve_cold_p50_us", finite(percentile(cold_us, 0.5)), "us"},
      {"serve_warm_p50_us", finite(percentile(warm_us, 0.5)), "us"},
      {"serve_keys", static_cast<double>(keys.size()), "count"},
  };
  if (!tracer.enabled()) return;

  // ---- traced pass ------------------------------------------------------
  RegistrySnapshot cold_d, warm_d, all_d;
  LoopRun traced_cold;
  std::vector<LoopRun> traced_warm;
  {
    fleet = train_fleet(opts, threads, tracer);
    Server server(fleet, threads);
    ClientConn& ctl = server.conns().front();
    const auto m0 = daemon_metrics(ctl);
    {
      auto s = tracer.span("serve.daemon.cold", keys.size());
      traced_cold = closed_loop(server.conns(), keys, cold_order);
    }
    const auto m1 = daemon_metrics(ctl);
    for (const auto& block : blocks) {
      auto s = tracer.span("serve.daemon.warm", block.size());
      traced_warm.push_back(closed_loop(server.conns(), keys, block));
    }
    const auto m2 = daemon_metrics(ctl);
    cold_d = delta(m0, m1);
    warm_d = delta(m1, m2);
    all_d = delta(m0, m2);
    server.stop();
  }
  verify(traced_cold, expected, "traced cold", result);
  for (const auto& run : traced_warm) verify(run, expected, "traced warm", result);

  // JSONL replay: parse every request line, serialise every response.
  {
    auto s = tracer.span("serve.jsonl.parse", keys.size());
    for (const auto& key : keys) {
      const auto parsed = serve::daemon_request_from_jsonl(key.line);
      (void)parsed;
    }
  }
  {
    auto s = tracer.span("serve.jsonl.serialize", oracle_responses.size());
    for (const auto& resp : oracle_responses) {
      const auto line = serve::response_to_jsonl(resp);
      (void)line;
    }
  }
  // Cold-path replay of sampled keys through the public calls.
  for (const std::size_t k : sample_indices(keys.size(), kReplayKeys, rng)) {
    const Key& key = keys[k];
    const auto& cfg = arch::boom_config(key.request.config);
    const auto& profile = workload::workload_by_name(key.request.workload);
    const sim::PerfSimulator sim;
    arch::EventVector events;
    {
      auto s = tracer.span("sim.simulate");
      events = sim.simulate(cfg, profile);
    }
    core::EvalContext ctx;
    {
      auto s = tracer.span("core.context");
      ctx.cfg = &cfg;
      ctx.workload = profile.name;
      ctx.program = workload::program_features(profile);
      ctx.events = events;
    }
    auto s = tracer.span("core.predict_total");
    const double mw = fleet.models[key.model]->predict_total(ctx);
    (void)mw;
  }


  double warm_rtt = 0.0, warm_n = 0.0;
  for (const auto& run : traced_warm) {
    for (const Sample& s : run.samples) {
      warm_rtt += s.us;
      warm_n += 1.0;
    }
  }
  warm_rtt /= std::max(1.0, warm_n);
  const double daemon_us = hist_mean(warm_d, "daemon.request_latency_ns") / 1e3;
  const double engine_us = hist_mean(warm_d, "serve.batch.request_latency_ns") / 1e3;
  const double batches = all_d.hist_count("serve.batch.batch_size");
  result.layers = {
      {"sim.simulate_us", tracer.per_call_us("sim.simulate"), "us"},
      {"core.context_us", tracer.per_call_us("core.context"), "us"},
      {"core.predict_total_us", tracer.per_call_us("core.predict_total"), "us"},
      {"core.train_s", tracer.per_call_us("core.train") / 1e6, "s"},
      {"exp.dataset_build_s", tracer.per_call_us("exp.dataset_build") / 1e6, "s"},
      {"serve.engine.run_us",
       batches == 0 ? 0.0
                    : all_d.hist_sum("serve.batch.request_latency_ns") / 1e3 / batches,
       "us"},
      {"serve.engine.batch_size", hist_mean(all_d, "serve.batch.batch_size"),
       "count"},
      {"serve.response_memo.hit_ratio",
       ratio(warm_d.counter("serve.batch.response_memo.hits"),
             warm_d.counter("serve.batch.response_memo.misses")),
       "ratio"},
      {"serve.eval_cache.hit_ratio",
       ratio(cold_d.counter("serve.eval_cache.hits"),
             cold_d.counter("serve.eval_cache.misses")),
       "ratio"},
      {"serve.jsonl.parse_us", tracer.per_item_us("serve.jsonl.parse"), "us"},
      {"serve.jsonl.serialize_us", tracer.per_item_us("serve.jsonl.serialize"), "us"},
      {"serve.daemon.wire_us", warm_rtt - daemon_us, "us"},
      {"serve.daemon.queue_wait_us", daemon_us - engine_us, "us"},
      {"serve.daemon.cold_p99_us", finite(percentile(cold_us, 0.99)), "us"},
      {"serve.daemon.cold_p99_samples", static_cast<double>(cold_us.size()),
       "count"},
      {"serve.daemon.warm_p99_us", finite(percentile(warm_us, 0.99)), "us"},
      {"serve.daemon.warm_p99_samples", static_cast<double>(warm_us.size()),
       "count"},
  };
  std::vector<double> traced_warm_times;
  for (const auto& run : traced_warm) traced_warm_times.push_back(run.seconds);
  const double untraced = stage_a + stage_b;
  const double traced_s = traced_cold.seconds + median(traced_warm_times);
  result.layers.push_back(
      {"bench.trace_overhead_pct", 100.0 * (traced_s - untraced) / untraced, "%"});
}

}  // namespace perfbench

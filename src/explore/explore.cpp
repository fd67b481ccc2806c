#include "explore/explore.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "core/sample.hpp"
#include "serve/checkpoint.hpp"
#include "serve/jsonl.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autopower::explore {

bool dominates(const Objectives& a, const Objectives& b) noexcept {
  if (a.ipc_per_watt < b.ipc_per_watt) return false;
  if (a.total_mw > b.total_mw) return false;
  if (a.area > b.area) return false;
  return a.ipc_per_watt > b.ipc_per_watt || a.total_mw < b.total_mw ||
         a.area < b.area;
}

double area_proxy(const arch::HardwareConfig& cfg) noexcept {
  // Fixed per-parameter weights (arbitrary units, roughly: datapath
  // width and cache ways are silicon-heavy; predictor/TLB tables are
  // cheap per entry).  Deterministic and monotone in every parameter so
  // the area objective always pulls toward the small corner.
  using P = arch::HwParam;
  return 0.40 * cfg.value_d(P::kFetchWidth) +
         0.60 * cfg.value_d(P::kDecodeWidth) +
         0.08 * cfg.value_d(P::kFetchBufferEntry) +
         0.030 * cfg.value_d(P::kRobEntry) +
         0.025 * cfg.value_d(P::kIntPhyRegister) +
         0.025 * cfg.value_d(P::kFpPhyRegister) +
         0.050 * cfg.value_d(P::kLdqStqEntry) +
         0.020 * cfg.value_d(P::kBranchCount) +
         0.50 * cfg.value_d(P::kMemFpIssueWidth) +
         0.50 * cfg.value_d(P::kIntIssueWidth) +
         1.20 * cfg.value_d(P::kCacheWay) +
         0.030 * cfg.value_d(P::kTlbEntry) +
         0.10 * cfg.value_d(P::kMshrEntry) +
         0.050 * cfg.value_d(P::kICacheFetchBytes);
}

std::vector<std::size_t> non_dominated_rank(std::span<const Objectives> objs) {
  const std::size_t n = objs.size();
  std::vector<std::size_t> rank(n, 0);
  if (n == 0) return rank;
  // NSGA-II fast non-dominated sort: domination counts + dominated
  // lists, then peel fronts.
  std::vector<std::size_t> dom_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dominates(objs[i], objs[j])) {
        dominated[i].push_back(j);
      } else if (dominates(objs[j], objs[i])) {
        ++dom_count[i];
      }
    }
    if (dom_count[i] == 0) front.push_back(i);
  }
  std::size_t level = 0;
  while (!front.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : front) {
      rank[i] = level;
      for (std::size_t j : dominated[i]) {
        if (--dom_count[j] == 0) next.push_back(j);
      }
    }
    front = std::move(next);
    ++level;
  }
  return rank;
}

std::vector<double> crowding_distance(std::span<const Objectives> objs,
                                      std::span<const std::size_t> front) {
  const std::size_t n = front.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, 0.0);
  if (n == 0) return dist;
  if (n <= 2) {
    std::fill(dist.begin(), dist.end(), kInf);
    return dist;
  }
  // Positions 0..n-1 into `front`, re-sorted per objective.
  std::vector<std::size_t> order(n);
  const auto accumulate = [&](auto key) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const double ka = key(objs[front[a]]);
                const double kb = key(objs[front[b]]);
                if (ka != kb) return ka < kb;
                return front[a] < front[b];  // deterministic tie-break
              });
    const double lo = key(objs[front[order.front()]]);
    const double hi = key(objs[front[order.back()]]);
    dist[order.front()] = kInf;
    dist[order.back()] = kInf;
    if (hi <= lo) return;  // zero spread: interior contributions are 0
    for (std::size_t i = 1; i + 1 < n; ++i) {
      if (dist[order[i]] == kInf) continue;
      dist[order[i]] += (key(objs[front[order[i + 1]]]) -
                         key(objs[front[order[i - 1]]])) /
                        (hi - lo);
    }
  };
  accumulate([](const Objectives& o) { return o.ipc_per_watt; });
  accumulate([](const Objectives& o) { return o.total_mw; });
  accumulate([](const Objectives& o) { return o.area; });
  return dist;
}

std::size_t digits_to_index(std::span<const std::size_t> digits,
                            std::span<const serve::SweepAxis> axes) {
  AP_REQUIRE(digits.size() == axes.size(),
             "digit vector does not match axis count");
  // Mixed-radix encode, first axis most significant (GridCursor order).
  std::size_t index = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    AP_REQUIRE(digits[a] < axes[a].values.size(),
               "digit out of range for axis");
    index = index * axes[a].values.size() + digits[a];
  }
  return index;
}

std::vector<std::size_t> index_to_digits(
    std::size_t index, std::span<const serve::SweepAxis> axes) {
  std::vector<std::size_t> digits(axes.size(), 0);
  std::size_t n = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    digits[a] = n % axes[a].values.size();
    n /= axes[a].values.size();
  }
  return digits;
}

std::vector<std::size_t> mutate(std::span<const std::size_t> digits,
                                std::span<const serve::SweepAxis> axes,
                                util::Rng& rng) {
  std::vector<std::size_t> out(digits.begin(), digits.end());
  if (axes.empty()) return out;
  const std::size_t flips = 1 + rng.next_below(2);
  for (std::size_t k = 0; k < flips; ++k) {
    const std::size_t a = rng.next_below(axes.size());
    out[a] = rng.next_below(axes[a].values.size());
  }
  return out;
}

std::vector<std::size_t> crossover(std::span<const std::size_t> a,
                                   std::span<const std::size_t> b,
                                   std::span<const serve::SweepAxis> axes,
                                   util::Rng& rng) {
  AP_REQUIRE(a.size() == axes.size() && b.size() == axes.size(),
             "crossover parents do not match axis count");
  std::vector<std::size_t> out(axes.size(), 0);
  for (std::size_t i = 0; i < axes.size(); ++i) {
    out[i] = rng.next_unit() < 0.5 ? a[i] : b[i];
    if (out[i] >= axes[i].values.size()) out[i] = axes[i].values.size() - 1;
  }
  return out;
}

namespace {

/// ±1 step on one uniformly chosen axis (direction flipped at a range
/// edge; a 1-value axis stays put).
std::vector<std::size_t> neighbour(std::span<const std::size_t> digits,
                                   std::span<const serve::SweepAxis> axes,
                                   util::Rng& rng) {
  std::vector<std::size_t> out(digits.begin(), digits.end());
  if (axes.empty()) return out;
  const std::size_t a = rng.next_below(axes.size());
  const std::size_t radix = axes[a].values.size();
  if (radix < 2) return out;
  const bool up = rng.next_unit() < 0.5;
  if (up) {
    out[a] = out[a] + 1 < radix ? out[a] + 1 : out[a] - 1;
  } else {
    out[a] = out[a] > 0 ? out[a] - 1 : out[a] + 1;
  }
  return out;
}

/// Smooth analytic miss-rate stand-in for the sampled structural
/// simulation: a footprint that fits is (nearly) resident; the excess
/// fraction of a too-large footprint misses once per line for strided
/// refs and once per access for random refs.
double smooth_miss(double footprint_kb, double capacity_kb,
                   double stride_frac, double line_amortise) {
  if (footprint_kb <= 1e-9) return 0.0;
  constexpr double kResident = 0.002;
  const double pressure = footprint_kb / std::max(capacity_kb, 1e-9);
  if (pressure <= 1.0) return kResident * pressure;
  const double excess = 1.0 - 1.0 / pressure;
  const double per_access =
      stride_frac * line_amortise + (1.0 - stride_frac);
  return std::min(1.0, kResident + excess * per_access);
}

struct ProxyMisses {
  double icache = 0.0, dcache = 0.0, itlb = 0.0, dtlb = 0.0, bp = 0.0;
};

ProxyMisses proxy_misses(const arch::HardwareConfig& cfg,
                         const workload::WorkloadPhase& ph) {
  using P = arch::HwParam;
  const double way = cfg.value_d(P::kCacheWay);
  const double mfw = cfg.value_d(P::kMemFpIssueWidth);
  const double ifb = cfg.value_d(P::kICacheFetchBytes);
  const double tlb = cfg.value_d(P::kTlbEntry);
  const double bc = cfg.value_d(P::kBranchCount);
  ProxyMisses m;
  // Capacities mirror the simulator's structures: I$ 16*ifb sets × way
  // × 64 B = ifb*way KiB; D$ 32*mfw sets = 2*mfw*way KiB; TLBs cover
  // tlb × 4 KiB pages.  Fetch strides 8*ifb bytes per 64 B line.
  m.icache = smooth_miss(ph.icache_footprint_kb, ifb * way, 0.92,
                         std::min(1.0, ifb / 8.0));
  m.dcache = smooth_miss(ph.dcache_footprint_kb, 2.0 * mfw * way,
                         ph.dcache_stride_frac, 1.0 / 8.0);
  m.itlb = smooth_miss(ph.icache_footprint_kb, tlb * 4.0, 0.95, 1.0 / 64.0);
  m.dtlb = smooth_miss(ph.dcache_footprint_kb, tlb * 4.0,
                       ph.dcache_stride_frac, 1.0 / 64.0);
  // Predictor: entropy floor plus capacity pressure of the static
  // branch set against the 64*BranchCount table.
  const double static_branches = 16.0 + ph.icache_footprint_kb * 12.0;
  const double pressure = static_branches / std::max(64.0 * bc, 1.0);
  m.bp = std::clamp(0.02 + 0.38 * ph.branch_entropy +
                        0.25 * std::min(1.0, pressure) *
                            (0.3 + 0.7 * ph.branch_entropy),
                    0.005, 0.95);
  return m;
}

/// Mirror of the simulator's interval IPC + event-rate model
/// (sim/perfsim.cpp compute_phase) with proxy_misses in place of the
/// sampled structural measurements.
void proxy_phase_rates(const arch::HardwareConfig& cfg,
                       const workload::WorkloadPhase& ph,
                       arch::EventVector& r, double& ipc_out) {
  using arch::EventKind;
  using P = arch::HwParam;
  const ProxyMisses mb = proxy_misses(cfg, ph);
  const double fw = cfg.value_d(P::kFetchWidth);
  const double dw = cfg.value_d(P::kDecodeWidth);
  const double rob = cfg.value_d(P::kRobEntry);
  const double lq = cfg.value_d(P::kLdqStqEntry);
  const double mfw = cfg.value_d(P::kMemFpIssueWidth);
  const double iw = cfg.value_d(P::kIntIssueWidth);
  const double mshr = cfg.value_d(P::kMshrEntry);
  const double fbe = cfg.value_d(P::kFetchBufferEntry);

  const double ipc0 = std::min(dw, ph.ilp);
  const double taken_frac = 0.45 * ph.branch_frac + 1e-4;
  const double instr_per_packet = std::min(fw, 1.0 / taken_frac);
  const double ic_access_per_instr = 1.0 / instr_per_packet;

  const double flush_penalty = 9.0 + 0.8 * dw;
  const double stall_branch = ph.branch_frac * mb.bp * flush_penalty;
  const double stall_icache = ic_access_per_instr * mb.icache * 16.0;
  const double stall_itlb = ic_access_per_instr * mb.itlb * 20.0;
  const double overlap =
      (1.0 - ph.mem_serialisation) * (mshr / (mshr + 3.0));
  const double miss_latency = 38.0;
  const double stall_dcache =
      ph.load_frac * mb.dcache * miss_latency * (1.0 - overlap) +
      ph.store_frac * mb.dcache * miss_latency * 0.15;
  const double stall_dtlb =
      (ph.load_frac + ph.store_frac) * mb.dtlb * 22.0;

  const double cpi = 1.0 / ipc0 + stall_branch + stall_icache +
                     stall_itlb + stall_dcache + stall_dtlb;
  double ipc = 1.0 / cpi;
  const double int_demand =
      1.0 - ph.load_frac - ph.store_frac - ph.fp_frac;
  if (int_demand > 1e-9) {
    ipc = std::min(ipc, iw / std::max(int_demand, 0.05));
  }
  const double mem_demand = ph.load_frac + ph.store_frac;
  if (mem_demand > 1e-9) ipc = std::min(ipc, mfw / mem_demand);
  if (ph.fp_frac > 1e-9) ipc = std::min(ipc, mfw / ph.fp_frac);
  const double lifetime =
      11.0 + ph.load_frac * mb.dcache * miss_latency * 0.8 +
      ph.branch_frac * mb.bp * flush_penalty * 0.4;
  ipc = std::min(ipc, 0.95 * rob / lifetime);
  const double load_residence = 7.0 + mb.dcache * miss_latency * 0.9;
  if (ph.load_frac > 1e-9) {
    ipc = std::min(ipc, 0.95 * lq / (ph.load_frac * load_residence));
  }
  ipc = std::max(ipc, 0.05);
  ipc_out = ipc;

  r[EventKind::kCycles] = 1.0;
  r[EventKind::kInstructions] = ipc;
  r[EventKind::kBranches] = ipc * ph.branch_frac;
  r[EventKind::kLoads] = ipc * ph.load_frac;
  r[EventKind::kStores] = ipc * ph.store_frac;
  r[EventKind::kFpInstrs] = ipc * ph.fp_frac;
  r[EventKind::kMulDivInstrs] = ipc * ph.muldiv_frac;
  r[EventKind::kIntAluInstrs] =
      ipc * std::max(0.0, 1.0 - ph.branch_frac - ph.load_frac -
                              ph.store_frac - ph.fp_frac - ph.muldiv_frac);

  const double waste = 1.0 + ph.branch_frac * mb.bp * (3.0 + 0.5 * dw);
  const double frontend_uops = ipc * waste;
  r[EventKind::kFetchPackets] = frontend_uops * ic_access_per_instr;
  r[EventKind::kFetchBubbles] = std::clamp(1.0 - ipc / dw, 0.0, 1.0);
  r[EventKind::kFetchBufferOcc] =
      std::min(fbe, 2.0 + 0.35 * fbe * (ipc / dw));
  r[EventKind::kBpLookups] = r[EventKind::kFetchPackets];
  r[EventKind::kBpMispredicts] = ipc * ph.branch_frac * mb.bp;
  r[EventKind::kBtbHits] =
      r[EventKind::kBpLookups] * (0.55 + 0.4 * (1.0 - ph.branch_entropy));
  r[EventKind::kICacheAccesses] = r[EventKind::kFetchPackets];
  r[EventKind::kICacheMisses] = r[EventKind::kICacheAccesses] * mb.icache;
  r[EventKind::kItlbAccesses] = r[EventKind::kICacheAccesses];
  r[EventKind::kItlbMisses] = r[EventKind::kItlbAccesses] * mb.itlb;

  r[EventKind::kDecodedUops] = frontend_uops;
  r[EventKind::kRenameUops] = frontend_uops;
  r[EventKind::kRenameStalls] =
      std::clamp(1.0 - ipc / dw, 0.0, 1.0) * 0.6;
  r[EventKind::kDispatchedUops] = frontend_uops;
  r[EventKind::kCommittedUops] = ipc;
  r[EventKind::kRobOccupancy] = std::min(0.97 * rob, ipc * lifetime);
  r[EventKind::kPipelineFlushes] =
      r[EventKind::kBpMispredicts] + 1e-5 * ipc;

  const double spec = waste;
  r[EventKind::kIntIssued] =
      ipc * spec * (r[EventKind::kIntAluInstrs] / std::max(ipc, 1e-9) +
                    ph.branch_frac + ph.muldiv_frac);
  r[EventKind::kMemIssued] = ipc * spec * mem_demand * 1.08;
  r[EventKind::kFpIssued] = ipc * spec * ph.fp_frac;
  const double iq_wait = 2.5 + 0.5 * lifetime * ph.mem_serialisation;
  r[EventKind::kIntIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kIntIssued] * iq_wait);
  r[EventKind::kMemIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kMemIssued] * iq_wait);
  r[EventKind::kFpIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kFpIssued] * iq_wait);
  r[EventKind::kRegfileReads] =
      1.65 * (r[EventKind::kIntIssued] + r[EventKind::kMemIssued] +
              r[EventKind::kFpIssued]);
  r[EventKind::kRegfileWrites] =
      0.82 * (r[EventKind::kIntIssued] + r[EventKind::kMemIssued] +
              r[EventKind::kFpIssued]);
  r[EventKind::kAluOps] =
      ipc * spec * (r[EventKind::kIntAluInstrs] / std::max(ipc, 1e-9) +
                    ph.branch_frac);
  r[EventKind::kMulOps] = ipc * spec * ph.muldiv_frac * 0.8;
  r[EventKind::kDivOps] = ipc * spec * ph.muldiv_frac * 0.2;
  r[EventKind::kFpuOps] = r[EventKind::kFpIssued];

  r[EventKind::kLoadsExecuted] = ipc * spec * ph.load_frac * 1.08;
  r[EventKind::kStoresExecuted] = ipc * ph.store_frac;
  r[EventKind::kStoreForwards] = r[EventKind::kLoadsExecuted] * 0.06 *
                                 std::min(1.0, ph.store_frac * 8.0);
  r[EventKind::kLdqOcc] =
      std::min(0.97 * lq, r[EventKind::kLoadsExecuted] * load_residence);
  r[EventKind::kStqOcc] =
      std::min(0.97 * lq, r[EventKind::kStoresExecuted] *
                              (6.0 + 0.3 * load_residence));
  r[EventKind::kDcacheAccesses] =
      r[EventKind::kLoadsExecuted] + r[EventKind::kStoresExecuted];
  r[EventKind::kDcacheMisses] =
      r[EventKind::kDcacheAccesses] * mb.dcache;
  r[EventKind::kDcacheWritebacks] =
      r[EventKind::kDcacheMisses] *
      std::min(0.9, 0.25 + 1.2 * ph.store_frac);
  r[EventKind::kMshrAllocs] = r[EventKind::kDcacheMisses];
  r[EventKind::kMshrFullStalls] =
      std::max(0.0, r[EventKind::kDcacheMisses] * miss_latency - mshr) /
      miss_latency * 0.5;
  r[EventKind::kDtlbAccesses] = r[EventKind::kDcacheAccesses];
  r[EventKind::kDtlbMisses] = r[EventKind::kDtlbAccesses] * mb.dtlb;
}

void append_int(std::string& out, long long value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

arch::EventVector proxy_events(const arch::HardwareConfig& cfg,
                               const workload::WorkloadProfile& profile) {
  AP_REQUIRE(!profile.phases.empty(),
             "workload has no phases: " + profile.name);
  arch::EventVector acc;
  double weight_sum = 0.0;
  for (const auto& ph : profile.phases) weight_sum += ph.weight;
  for (const auto& ph : profile.phases) {
    arch::EventVector rates;
    double ipc = 0.0;
    proxy_phase_rates(cfg, ph, rates, ipc);
    const double instr = static_cast<double>(profile.instructions) *
                         ph.weight / weight_sum;
    const double cycles = instr / ipc;
    for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
      const auto kind = static_cast<arch::EventKind>(i);
      acc[kind] += rates[kind] * cycles;
    }
  }
  return acc;
}

namespace {

/// One verified truth, as the calibration sees it: grid coordinates plus
/// per-workload (true, proxy) scalars.  Everything here is recomputable
/// from a checkpoint row, which is what keeps a resumed search
/// byte-identical — no state survives a kill except verified rows.
struct Anchor {
  std::vector<std::size_t> digits;
  std::vector<double> true_ipc, true_mw;    // per workload; 0 = failed cell
  std::vector<double> proxy_ipc, proxy_mw;  // proxy estimates, same order
};

/// Normalised squared grid distance between two digit vectors.
double digit_distance2(std::span<const std::size_t> a,
                       std::span<const std::size_t> b,
                       std::span<const serve::SweepAxis> axes) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    const double span =
        std::max<double>(1.0, static_cast<double>(axes[i].values.size()) - 1.0);
    const double d = (static_cast<double>(a[i]) - static_cast<double>(b[i])) /
                     span;
    d2 += d * d;
  }
  return d2;
}

std::string explore_fingerprint(const ExploreSpec& spec,
                                const core::AutoPowerModel& model) {
  // The sweep fingerprint hashes base + axes + workloads + model; fold
  // the explore search identity (seed, population, generations,
  // verify_top) into the base string so a checkpoint can only resume
  // the exact search that wrote it — a different seed or cadence walks
  // a different verification order.
  std::string base = spec.base;
  base += "#explore-v1#seed=";
  append_int(base, static_cast<long long>(spec.seed));
  base += "#pop=";
  append_int(base, static_cast<long long>(spec.population));
  base += "#gen=";
  append_int(base, static_cast<long long>(spec.generations));
  base += "#verify=";
  append_int(base, static_cast<long long>(spec.verify_top));
  return serve::sweep_fingerprint(base, spec.axes, spec.workloads,
                                  model.fingerprint());
}

/// True objectives of a verified row (caller has checked eligibility).
Objectives row_objectives(const serve::SweepRow& row) {
  return Objectives{row.ipc_per_watt, row.mean_total_mw,
                    area_proxy(row.config)};
}

bool frontier_eligible(const serve::SweepRow& row) {
  return row.failed == 0 && row.mean_total_mw > 0.0;
}

}  // namespace

ExploreReport run_explore(
    const core::AutoPowerModel& model, const ExploreSpec& spec,
    std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!spec.workloads.empty(), "explore needs at least one workload");
  AP_REQUIRE(!spec.axes.empty(), "explore needs at least one grid axis");
  AP_REQUIRE(spec.population > 0, "explore population must be positive");
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "explore resume needs a checkpoint path");
  const arch::HardwareConfig& base = arch::boom_config(spec.base);
  const serve::GridCursor cursor(base, spec.axes);
  const std::size_t n_configs = cursor.size();
  const std::size_t n_workloads = spec.workloads.size();
  const std::span<const serve::SweepAxis> axes(spec.axes);

  std::vector<const workload::WorkloadProfile*> profiles;
  std::vector<workload::ProgramFeatures> programs;
  profiles.reserve(n_workloads);
  for (const std::string& name : spec.workloads) {
    profiles.push_back(&workload::workload_by_name(name));
    programs.push_back(workload::program_features(*profiles.back()));
  }

  if (structural == nullptr) {
    structural =
        std::make_shared<util::StructuralSimCache>(/*shards_per_sub=*/8,
                                                   /*max_entries=*/0);
  }
  const util::StructuralSimCache::Stats before = structural->stats();

  auto& registry = util::MetricsRegistry::global();
  auto& m_gens = registry.counter("explore.generations");
  auto& m_cands = registry.counter("explore.candidates");
  auto& m_verified = registry.counter("explore.elites_verified");
  auto& g_elite_err = registry.gauge("explore.model_elite_err");

  // Checkpoint = a memo of simulator evaluations.  The search itself is
  // replayed deterministically from generation 0 on resume; replayed
  // rows only short-circuit the verification step, they never perturb
  // candidate generation (which would diverge from the original walk).
  std::map<std::size_t, serve::SweepRow> memo;
  std::unique_ptr<serve::CheckpointWriter> checkpoint;
  std::size_t resumed = 0;
  if (!spec.checkpoint.empty()) {
    const std::string fingerprint = explore_fingerprint(spec, model);
    std::uint64_t keep_bytes = 0;
    if (spec.resume) {
      serve::CheckpointReplay replay = serve::load_checkpoint(
          spec.checkpoint, fingerprint, n_configs, n_workloads);
      keep_bytes = replay.valid_bytes;
      resumed = replay.rows.size();
      for (serve::SweepRow& row : replay.rows) {
        memo.emplace(row.index, std::move(row));
      }
    }
    checkpoint = std::make_unique<serve::CheckpointWriter>(
        spec.checkpoint, fingerprint, n_configs, n_workloads, keep_bytes);
  }

  // Search state.  `visited` holds every grid index ever scored (or
  // force-verified), so a cell is model-scored at most once per run.
  std::unordered_set<std::size_t> visited;
  std::map<std::size_t, serve::SweepRow> walk_verified;
  std::vector<Anchor> anchors;
  std::vector<std::vector<std::size_t>> parents;
  constexpr std::size_t kNoBest = std::numeric_limits<std::size_t>::max();
  std::size_t best_index = kNoBest;
  double best_ipw = -std::numeric_limits<double>::infinity();

  ExploreReport report;
  report.grid_configs = n_configs;
  report.resumed = resumed;

  const auto random_digits = [&](util::Rng& rng) {
    std::vector<std::size_t> d(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      d[a] = rng.next_below(axes[a].values.size());
    }
    return d;
  };

  for (std::size_t gen = 0; gen < spec.generations; ++gen) {
    AUTOPOWER_FAULT_POINT("serve.explore.generation");

    // ---- 1. Candidate generation (deterministic per-slot streams,
    // deduplicated against everything ever scored).
    std::vector<std::vector<std::size_t>> cand_digits;
    std::vector<std::size_t> cand_index;
    std::size_t forced_begin = 0;  // candidates from here on are forced
    std::unordered_set<std::size_t> in_gen;
    const auto accept = [&](std::vector<std::size_t>&& d) {
      const std::size_t idx = digits_to_index(d, axes);
      cand_digits.push_back(std::move(d));
      cand_index.push_back(idx);
      in_gen.insert(idx);
    };
    for (std::size_t slot = 0; slot < spec.population; ++slot) {
      util::Rng rng(util::hash_combine(
          util::hash_combine(spec.seed, static_cast<std::uint64_t>(gen)),
          static_cast<std::uint64_t>(slot)));
      bool found = false;
      for (int attempt = 0; attempt < 16 && !found; ++attempt) {
        std::vector<std::size_t> d;
        if (gen == 0 || parents.empty()) {
          d = random_digits(rng);
        } else {
          const double u = rng.next_unit();
          if (u < 0.40) {
            d = mutate(parents[rng.next_below(parents.size())], axes, rng);
          } else if (u < 0.70) {
            const auto& pa = parents[rng.next_below(parents.size())];
            const auto& pb = parents[rng.next_below(parents.size())];
            d = crossover(pa, pb, axes, rng);
          } else if (u < 0.85) {
            d = neighbour(parents[rng.next_below(parents.size())], axes,
                          rng);
          } else {
            d = random_digits(rng);  // random immigrant
          }
        }
        const std::size_t idx = digits_to_index(d, axes);
        if (visited.count(idx) == 0 && in_gen.count(idx) == 0) {
          accept(std::move(d));
          found = true;
        }
      }
      if (!found) {
        // Collision fallback: deterministic linear scan for ANY
        // unvisited cell from a random start, so a small grid is
        // covered exhaustively instead of starving on duplicates.
        if (visited.size() + in_gen.size() >= n_configs) continue;
        const std::size_t start = rng.next_below(n_configs);
        for (std::size_t k = 0; k < n_configs; ++k) {
          const std::size_t idx = (start + k) % n_configs;
          if (visited.count(idx) == 0 && in_gen.count(idx) == 0) {
            accept(index_to_digits(idx, axes));
            break;
          }
        }
      }
    }
    forced_begin = cand_digits.size();
    // Forced hill-climb probes: the ±1 single-axis neighbours of the
    // best verified config are always verified, so the search cannot
    // terminate while an adjacent grid point beats the incumbent.
    if (best_index != kNoBest) {
      const std::vector<std::size_t> bd = index_to_digits(best_index, axes);
      for (std::size_t a = 0; a < axes.size(); ++a) {
        for (int step : {-1, 1}) {
          if (step < 0 && bd[a] == 0) continue;
          if (step > 0 && bd[a] + 1 >= axes[a].values.size()) continue;
          std::vector<std::size_t> d = bd;
          d[a] = step < 0 ? d[a] - 1 : d[a] + 1;
          const std::size_t idx = digits_to_index(d, axes);
          if (visited.count(idx) == 0 && in_gen.count(idx) == 0) {
            accept(std::move(d));
          }
        }
      }
    }
    if (cand_digits.empty()) break;  // grid exhausted
    const std::size_t n_cand = cand_digits.size();
    for (std::size_t idx : cand_index) visited.insert(idx);

    // ---- 2. Model scoring (no simulator): proxy events →
    // predict_total_batch, in fixed-size chunks over the workers.
    // Results land by slot, and each element is bit-identical however
    // the batch is chunked, so any thread count scores identically.
    std::vector<arch::HardwareConfig> cand_cfgs(n_cand);
    for (std::size_t i = 0; i < n_cand; ++i) {
      cand_cfgs[i] = cursor.config_at(cand_index[i]);
    }
    std::vector<double> proxy_ipc(n_cand * n_workloads, 0.0);
    std::vector<double> proxy_mw(n_cand * n_workloads, 0.0);
    const auto score_chunk = [&](std::size_t lo, std::size_t hi) {
      std::vector<core::EvalContext> ctxs;
      ctxs.reserve((hi - lo) * n_workloads);
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t w = 0; w < n_workloads; ++w) {
          core::EvalContext ctx;
          ctx.cfg = &cand_cfgs[i];
          ctx.workload = spec.workloads[w];
          ctx.program = programs[w];
          ctx.events = proxy_events(cand_cfgs[i], *profiles[w]);
          proxy_ipc[i * n_workloads + w] =
              ctx.events.rate(arch::EventKind::kInstructions);
          ctxs.push_back(std::move(ctx));
        }
      }
      const std::vector<double> totals = model.predict_total_batch(ctxs);
      for (std::size_t k = 0; k < totals.size(); ++k) {
        proxy_mw[lo * n_workloads + k] = totals[k];
      }
    };
    constexpr std::size_t kScoreChunk = 16;  // fixed: thread-invariant
    const std::size_t n_chunks = (n_cand + kScoreChunk - 1) / kScoreChunk;
    std::atomic<std::size_t> next_chunk{0};
    util::run_workers(
        util::worker_count(spec.threads, n_chunks), [&](std::size_t) {
          for (std::size_t c =
                   next_chunk.fetch_add(1, std::memory_order_relaxed);
               c < n_chunks;
               c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
            const std::size_t lo = c * kScoreChunk;
            score_chunk(lo, std::min(n_cand, lo + kScoreChunk));
          }
        });
    m_cands.add(n_cand);
    report.candidates_scored += n_cand;

    // ---- 3. k-NN anchor calibration: correct each proxy scalar by the
    // distance-weighted mean true/proxy ratio of the nearest verified
    // anchors (per workload).  With no anchors yet the proxy stands.
    std::vector<Objectives> est(n_cand);
    const std::size_t knn = std::min<std::size_t>(8, anchors.size());
    std::vector<std::pair<double, std::size_t>> near;
    for (std::size_t i = 0; i < n_cand; ++i) {
      double ipc_sum = 0.0, mw_sum = 0.0;
      std::size_t ok = 0;
      for (std::size_t w = 0; w < n_workloads; ++w) {
        double ipc = proxy_ipc[i * n_workloads + w];
        double mw = proxy_mw[i * n_workloads + w];
        if (knn > 0) {
          near.clear();
          near.reserve(anchors.size());
          for (std::size_t a = 0; a < anchors.size(); ++a) {
            near.emplace_back(
                digit_distance2(cand_digits[i], anchors[a].digits, axes), a);
          }
          std::partial_sort(near.begin(), near.begin() + knn, near.end());
          double wsum = 0.0, ipc_ratio = 0.0, mw_ratio = 0.0;
          for (std::size_t k = 0; k < knn; ++k) {
            const Anchor& anc = anchors[near[k].second];
            const std::size_t w_i = w;
            if (anc.true_ipc[w_i] <= 0.0 || anc.proxy_ipc[w_i] <= 0.0 ||
                anc.true_mw[w_i] <= 0.0 || anc.proxy_mw[w_i] <= 0.0) {
              continue;
            }
            const double weight = 1.0 / (1e-6 + near[k].first);
            wsum += weight;
            ipc_ratio += weight * (anc.true_ipc[w_i] / anc.proxy_ipc[w_i]);
            mw_ratio += weight * (anc.true_mw[w_i] / anc.proxy_mw[w_i]);
          }
          if (wsum > 0.0) {
            ipc *= ipc_ratio / wsum;
            mw *= mw_ratio / wsum;
          }
        }
        if (mw > 0.0) {
          ipc_sum += ipc;
          mw_sum += mw;
          ++ok;
        }
      }
      Objectives& o = est[i];
      o.area = area_proxy(cand_cfgs[i]);
      if (ok > 0) {
        const double mean_ipc = ipc_sum / static_cast<double>(ok);
        const double mean_mw = mw_sum / static_cast<double>(ok);
        o.total_mw = mean_mw;
        o.ipc_per_watt =
            mean_mw > 0.0 ? mean_ipc / (mean_mw / 1000.0) : 0.0;
      } else {
        o.total_mw = std::numeric_limits<double>::infinity();
      }
    }

    // ---- 4. Elite selection: (Pareto rank asc, crowding desc, slot
    // asc), then the forced probes unconditionally.
    const std::vector<std::size_t> ranks = non_dominated_rank(est);
    std::vector<double> crowd(n_cand, 0.0);
    {
      const std::size_t n_fronts =
          ranks.empty() ? 0 : 1 + *std::max_element(ranks.begin(),
                                                    ranks.end());
      for (std::size_t level = 0; level < n_fronts; ++level) {
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n_cand; ++i) {
          if (ranks[i] == level) front.push_back(i);
        }
        const std::vector<double> d = crowding_distance(est, front);
        for (std::size_t k = 0; k < front.size(); ++k) {
          crowd[front[k]] = d[k];
        }
      }
    }
    std::vector<std::size_t> order(n_cand);
    for (std::size_t i = 0; i < n_cand; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
                if (crowd[a] != crowd[b]) return crowd[a] > crowd[b];
                return a < b;
              });
    const std::size_t n_elite =
        spec.verify_top == 0 ? n_cand
                             : std::min(spec.verify_top, n_cand);
    std::vector<std::size_t> chosen;  // candidate slots
    chosen.reserve(n_elite + (n_cand - forced_begin));
    for (std::size_t k = 0; k < n_elite; ++k) chosen.push_back(order[k]);
    for (std::size_t i = forced_begin; i < n_cand; ++i) {
      if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) {
        chosen.push_back(i);
      }
    }
    // Verification batch in ascending grid order (deterministic; the
    // row values are order-invariant anyway).
    std::sort(chosen.begin(), chosen.end(),
              [&](std::size_t a, std::size_t b) {
                return cand_index[a] < cand_index[b];
              });

    // ---- 5. Simulator verification, memo-aware: checkpointed rows are
    // replayed, everything else goes through the batched sweep driver
    // and is appended to the checkpoint.
    std::vector<std::size_t> fresh_slots;
    std::vector<arch::HardwareConfig> fresh_cfgs;
    for (std::size_t slot : chosen) {
      if (memo.count(cand_index[slot]) == 0) {
        fresh_slots.push_back(slot);
        fresh_cfgs.push_back(cand_cfgs[slot]);
      }
    }
    if (!fresh_cfgs.empty()) {
      std::vector<serve::SweepRow> rows = serve::evaluate_configs(
          model, fresh_cfgs, spec.workloads, spec.threads, structural);
      std::string json_scratch;
      for (std::size_t j = 0; j < rows.size(); ++j) {
        rows[j].index = cand_index[fresh_slots[j]];
        if (checkpoint != nullptr) {
          json_scratch.clear();
          serve::append_row_json(json_scratch, rows[j]);
          checkpoint->append(rows[j].index, json_scratch);
        }
        memo.emplace(rows[j].index, std::move(rows[j]));
      }
      report.verified += fresh_cfgs.size();
      m_verified.add(fresh_cfgs.size());
    }

    // ---- 6. Fold the verified truths back in: elite error, anchors,
    // incumbent, parent pool.
    double err_sum = 0.0;
    std::size_t err_n = 0;
    for (std::size_t slot : chosen) {
      const std::size_t idx = cand_index[slot];
      const serve::SweepRow& row = memo.at(idx);
      walk_verified.emplace(idx, row);
      Anchor anc;
      anc.digits = cand_digits[slot];
      anc.true_ipc.resize(n_workloads, 0.0);
      anc.true_mw.resize(n_workloads, 0.0);
      anc.proxy_ipc.resize(n_workloads, 0.0);
      anc.proxy_mw.resize(n_workloads, 0.0);
      for (std::size_t w = 0; w < n_workloads; ++w) {
        const serve::SweepCell& cell = row.cells[w];
        if (cell.ok) {
          anc.true_ipc[w] = cell.ipc;
          anc.true_mw[w] = cell.total_mw;
        }
        anc.proxy_ipc[w] = proxy_ipc[slot * n_workloads + w];
        anc.proxy_mw[w] = proxy_mw[slot * n_workloads + w];
      }
      anchors.push_back(std::move(anc));
      if (frontier_eligible(row)) {
        if (row.ipc_per_watt > best_ipw ||
            (row.ipc_per_watt == best_ipw && idx < best_index)) {
          best_ipw = row.ipc_per_watt;
          best_index = idx;
        }
        err_sum += std::abs(est[slot].ipc_per_watt - row.ipc_per_watt) /
                   std::max(row.ipc_per_watt, 1e-12);
        ++err_n;
      }
    }
    const double gen_err =
        err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0;
    report.elite_err.push_back(gen_err);
    g_elite_err.set(gen_err);

    // Parents for the next generation: the verified Pareto front plus
    // this generation's elites (ascending grid order, deduplicated).
    parents.clear();
    {
      std::vector<std::size_t> front_idx;
      std::vector<Objectives> objs;
      for (const auto& [idx, row] : walk_verified) {
        if (!frontier_eligible(row)) continue;
        front_idx.push_back(idx);
        objs.push_back(row_objectives(row));
      }
      const std::vector<std::size_t> vranks = non_dominated_rank(objs);
      std::unordered_set<std::size_t> seen;
      for (std::size_t k = 0; k < front_idx.size(); ++k) {
        if (vranks[k] == 0 && seen.insert(front_idx[k]).second) {
          parents.push_back(index_to_digits(front_idx[k], axes));
        }
      }
      for (std::size_t slot : chosen) {
        if (seen.insert(cand_index[slot]).second) {
          parents.push_back(cand_digits[slot]);
        }
      }
    }
    m_gens.inc();
    ++report.generations_run;
  }
  if (checkpoint != nullptr) checkpoint->close();

  // ---- Final frontier: the non-dominated verified rows, ipc_per_watt
  // descending, grid index ascending as the deterministic tie-break.
  {
    std::vector<const serve::SweepRow*> rows;
    std::vector<Objectives> objs;
    for (const auto& [idx, row] : walk_verified) {
      if (!frontier_eligible(row)) continue;
      rows.push_back(&row);
      objs.push_back(row_objectives(row));
    }
    const std::vector<std::size_t> ranks = non_dominated_rank(objs);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (ranks[k] != 0) continue;
      FrontierRow fr;
      fr.row = *rows[k];
      fr.area = objs[k].area;
      report.frontier.push_back(std::move(fr));
    }
    std::sort(report.frontier.begin(), report.frontier.end(),
              [](const FrontierRow& a, const FrontierRow& b) {
                if (a.row.ipc_per_watt != b.row.ipc_per_watt) {
                  return a.row.ipc_per_watt > b.row.ipc_per_watt;
                }
                return a.row.index < b.row.index;
              });
    for (std::size_t k = 0; k < report.frontier.size(); ++k) {
      report.frontier[k].row.rank = k + 1;
    }
  }

  const util::StructuralSimCache::Stats after = structural->stats();
  report.structural = {after.hits - before.hits,
                       after.misses - before.misses,
                       after.evictions - before.evictions};
  if (util::MetricsRegistry::enabled()) {
    structural->export_metrics(registry);
  }
  return report;
}

void write_frontier(std::ostream& out, const ExploreReport& report) {
  std::string line;
  for (const FrontierRow& fr : report.frontier) {
    // Same stream-flavoured fault site as the sweep report writer: a
    // torn frontier must latch badbit and exit non-zero.
    AUTOPOWER_FAULT_STREAM("serve.report.write_row", out);
    line.clear();
    line += "{\"rank\":";
    append_int(line, static_cast<long long>(fr.row.rank));
    line += ',';
    serve::append_row_json(line, fr.row);
    line += ",\"area_proxy\":";
    line += serve::json_number(fr.area);
    line += "}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

}  // namespace autopower::explore

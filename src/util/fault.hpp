// Deterministic fault injection for failure-path testing.
//
// Production code marks its fallible seams — allocations that fill a
// cache, lines read from or written to a report stream, archive fields,
// worker thread launches — with AUTOPOWER_FAULT_POINT("site.name").
// Tests then *arm* a site with a trigger (fail the Nth hit, every Nth
// hit, or a seeded probability per hit) and drive the real code path;
// the armed point throws util::FaultInjected exactly where a disk-full,
// bad_alloc or torn stream would surface.  Everything is deterministic:
// countdown/every-Nth triggers count hits, and the probability trigger
// derives each decision from mix64(seed, hit_index) — the same arming
// always fails the same hits.
//
// Sites are plain string literals; the registry records every site that
// has ever been evaluated (hit) in this process, so tests can assert
// that the paths they exercised actually contain the points they armed
// (`sites_seen`).  The canonical site list lives in DESIGN.md ("Testing
// strategy" — fault-site registry).
//
// Cost: when AUTOPOWER_FAULT_INJECTION is not defined (Release builds;
// see src/util/CMakeLists.txt) every macro compiles to `((void)0)`.
// When compiled in but with nothing armed, a fault point is one relaxed
// atomic load.
//
// Cross-process arming: AUTOPOWER_FAULT="site=countdown:3;other=every:2"
// in the environment arms sites at first use, so subprocess tests can
// inject faults into the CLI without touching its code.  Trigger specs:
//   countdown:N      fail the Nth evaluation of the site (1-based), once
//   every:N          fail every Nth evaluation
//   prob:P[:SEED]    fail each evaluation with probability P (default
//                    seed 0); deterministic in (SEED, hit index)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace autopower::util::fault {

/// Thrown by an armed fault point.  Derives util::Error so every
/// existing catch/exit-1 path treats it like a genuine I/O or
/// allocation failure.
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

/// When a site fires.
struct Trigger {
  enum class Kind { kCountdown, kEveryNth, kProbability };
  Kind kind = Kind::kCountdown;
  std::uint64_t n = 1;    ///< countdown target / every-Nth period
  double p = 0.0;         ///< kProbability only
  std::uint64_t seed = 0; ///< kProbability decision stream seed

  /// Fail the `n`th evaluation (1-based) of the site, exactly once.
  [[nodiscard]] static Trigger countdown(std::uint64_t n) {
    return {Kind::kCountdown, n == 0 ? 1 : n, 0.0, 0};
  }
  /// Fail every `n`th evaluation (hits n, 2n, 3n, ...).
  [[nodiscard]] static Trigger every_nth(std::uint64_t n) {
    return {Kind::kEveryNth, n == 0 ? 1 : n, 0.0, 0};
  }
  /// Fail each evaluation with probability `p`, decided by
  /// mix64(seed, hit index) — deterministic across runs.
  [[nodiscard]] static Trigger probability(double p, std::uint64_t seed = 0) {
    return {Kind::kProbability, 1, p, seed};
  }
};

/// Arms `site` with `trigger` (replacing any previous arming and
/// resetting its hit counter).
void arm(std::string_view site, const Trigger& trigger);

/// Disarms `site`; its hit history is kept for sites_seen()/hit_count().
void disarm(std::string_view site);

/// Disarms every site (does not clear hit history).
void disarm_all();

/// True when the site's trigger elects this evaluation to fail.  Every
/// call counts one hit against the site, armed or not.
[[nodiscard]] bool should_fail(std::string_view site);

/// should_fail + throw FaultInjected naming the site.  This is what
/// AUTOPOWER_FAULT_POINT expands to.
void inject(std::string_view site);

/// Stream-flavoured injection: instead of throwing, latches badbit on
/// `out` when the site fires, so the production stream-state checks
/// (util::flush_and_check) detect it exactly like a full disk.
void inject_stream(std::string_view site, std::ostream& out);

/// Total evaluations of `site` in this process (armed or not).
[[nodiscard]] std::uint64_t hit_count(std::string_view site);

/// Every site evaluated at least once in this process, sorted.
[[nodiscard]] std::vector<std::string> sites_seen();

/// Parses AUTOPOWER_FAULT from the environment and arms the listed
/// sites.  Called lazily by the first fault-point evaluation; exposed
/// so tests can force a re-read after setenv.  Throws util::Error on a
/// malformed spec.
void arm_from_env();

/// RAII arming for tests: arms in the constructor, disarms in the
/// destructor.
class ScopedFault {
 public:
  ScopedFault(std::string_view site, const Trigger& trigger)
      : site_(site) {
    arm(site_, trigger);
  }
  ~ScopedFault() { disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

}  // namespace autopower::util::fault

#if defined(AUTOPOWER_FAULT_INJECTION)
#define AUTOPOWER_FAULT_POINT(site) ::autopower::util::fault::inject(site)
#define AUTOPOWER_FAULT_STREAM(site, os) \
  ::autopower::util::fault::inject_stream((site), (os))
#else
#define AUTOPOWER_FAULT_POINT(site) ((void)0)
#define AUTOPOWER_FAULT_STREAM(site, os) ((void)0)
#endif

// Unit tests for util: deterministic hashing/PRNG, noise envelopes,
// error types, the table printer, and the fork-join worker helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace autopower::util {
namespace {

TEST(Mix64, IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_EQ(mix64(0xdeadbeef), mix64(0xdeadbeef));
}

TEST(Mix64, SmallInputChangesPropagate) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), mix64(1));
  // Flipping any single bit should change the output.
  for (int bit = 0; bit < 64; ++bit) {
    EXPECT_NE(mix64(0x1234567890abcdefULL),
              mix64(0x1234567890abcdefULL ^ (1ULL << bit)))
        << "bit " << bit;
  }
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashStr, DistinguishesStrings) {
  EXPECT_NE(hash_str("alpha"), hash_str("beta"));
  EXPECT_EQ(hash_str("alpha"), hash_str("alpha"));
  EXPECT_NE(hash_str(""), hash_str("a"));
}

TEST(HashUnit, InUnitInterval) {
  for (std::uint64_t k = 0; k < 2000; ++k) {
    const double v = hash_unit(k);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(HashUnit, RoughlyUniform) {
  int buckets[10] = {};
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    ++buckets[static_cast<int>(hash_unit(static_cast<std::uint64_t>(k)) *
                               10.0)];
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 50) << "bucket " << b;
  }
}

TEST(HashSym, InSymmetricInterval) {
  double sum = 0.0;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const double v = hash_sym(k);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 5000.0, 0.0, 0.05);
}

TEST(NoiseFactor, WithinEnvelope) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double f = noise_factor(k, 0.05);
    EXPECT_GE(f, 0.95);
    EXPECT_LT(f, 1.05);
  }
}

TEST(NoiseFactor, ZeroAmplitudeIsIdentity) {
  EXPECT_DOUBLE_EQ(noise_factor(123, 0.0), 1.0);
}

TEST(Rng, DeterministicStreams) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64();
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_range(-2.5, 3.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, GaussHasUnitishVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gauss();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.07);
}

TEST(LognormalFactor, AlwaysPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(lognormal_factor(rng, 0.3), 0.0);
  }
}

TEST(Error, HierarchyAndMessages) {
  EXPECT_THROW(throw InvalidArgument("bad"), Error);
  EXPECT_THROW(throw NotFitted("model"), Error);
  try {
    throw InvalidArgument("specific message");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(Assert, ThrowsWithLocation) {
  try {
    AP_ASSERT_MSG(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(Require, ThrowsInvalidArgument) {
  EXPECT_THROW(AP_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(AP_REQUIRE(true, "fine"));
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.add_row({"xxxxxx", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("xxxxxx"), std::string::npos);
  // Every line has the same length (aligned).
  std::istringstream in(s);
  std::string line;
  std::set<std::size_t> lengths;
  while (std::getline(in, line)) lengths.insert(line.size());
  EXPECT_EQ(lengths.size(), 1u);
}

TEST(TablePrinter, RejectsBadArity) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
  EXPECT_THROW(TablePrinter({}), InvalidArgument);
}

TEST(Fmt, FormatsNumbers) {
  EXPECT_EQ(fmt(4.356, 2), "4.36");
  EXPECT_EQ(fmt(4.0, 0), "4");
  EXPECT_EQ(fmt_pct(9.291, 2), "9.29%");
}

TEST(ParallelTest, WorkerCountClampsToCoresAndItems) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(worker_count(0, 10), 1u);    // never zero workers
  EXPECT_EQ(worker_count(4, 0), 1u);     // ... even with nothing to do
  EXPECT_EQ(worker_count(1000, 1), 1u);  // no more workers than items
  EXPECT_EQ(worker_count(1000, 1000), cores);
  EXPECT_EQ(worker_count(2, 1000), std::min<std::size_t>(2, cores));
}

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kWorkers = 6;
  std::vector<std::atomic<int>> runs(kWorkers);
  run_workers(kWorkers, [&runs](std::size_t w) { runs[w].fetch_add(1); });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(runs[w].load(), 1) << "worker " << w;
  }
}

TEST(ParallelTest, SingleWorkerRunsOnCallingThread) {
  for (const std::size_t n : {0u, 1u}) {  // 0 counts as 1
    std::vector<std::size_t> seen;
    std::thread::id ran_on;
    run_workers(n, [&](std::size_t w) {
      seen.push_back(w);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, std::vector<std::size_t>{0});
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  }
}

TEST(ParallelTest, FirstExceptionRethrownWithTypeAfterAllWorkersJoin) {
  // Workers 1 and 3 throw different types; the lowest-numbered worker's
  // exception comes out, unwrapped, and only once the slow non-throwing
  // workers have finished.
  std::atomic<int> finished{0};
  try {
    run_workers(4, [&finished](std::size_t w) {
      if (w == 1) throw std::out_of_range("worker 1");
      if (w == 3) throw InvalidArgument("worker 3");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "run_workers swallowed the workers' exceptions";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "worker 1");
  }
  EXPECT_EQ(finished.load(), 2);
}

}  // namespace
}  // namespace autopower::util

// Tests for the streaming sweep machinery (src/serve/sweep.*,
// src/serve/checkpoint.*): lazy mixed-radix grid enumeration past the
// materialisation cap, crc-guarded checkpoint round-trips, the torn-tail
// vs corruption resume policy, byte-identity of resumed and
// memory-bounded runs, bounded top-k ranking, and the thread clamp.
//
// Compiled into the test_serve binary so tools/check.sh's TSan preset
// covers the work-stealing invariance tests.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "power/golden.hpp"
#include "serve/checkpoint.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {
namespace {

// --- Grid cursor -------------------------------------------------------------

TEST(GridCursorTest, MatchesMaterialisedExpansion) {
  // Reference expansion: nested loops, first axis slowest.
  const auto& base = arch::boom_config("C8");
  const auto axes = parse_grid(
      "RobEntry=64,96;FetchBufferEntry=16,24,32;LdqStqEntry=16,24");
  std::array<int, arch::kNumHwParams> base_values{};
  for (const arch::HwParam p : arch::all_hw_params()) {
    base_values[static_cast<std::size_t>(p)] = base.value(p);
  }
  std::vector<arch::HardwareConfig> materialised;
  for (const int rob : axes[0].values) {
    for (const int fetch : axes[1].values) {
      for (const int ldq : axes[2].values) {
        auto values = base_values;
        values[static_cast<std::size_t>(arch::HwParam::kRobEntry)] = rob;
        values[static_cast<std::size_t>(arch::HwParam::kFetchBufferEntry)] =
            fetch;
        values[static_cast<std::size_t>(arch::HwParam::kLdqStqEntry)] = ldq;
        materialised.emplace_back(
            base.name() + "+RobEntry=" + std::to_string(rob) +
                "+FetchBufferEntry=" + std::to_string(fetch) +
                "+LdqStqEntry=" + std::to_string(ldq),
            values);
      }
    }
  }
  const GridCursor cursor(base, axes);
  ASSERT_EQ(cursor.size(), materialised.size());

  std::string name;
  std::array<int, arch::kNumHwParams> values{};
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    EXPECT_EQ(cursor.config_at(i), materialised[i]) << "index " << i;
    cursor.format_name(i, name);
    EXPECT_EQ(name, materialised[i].name()) << "index " << i;
    cursor.values_at(i, values);
    for (const arch::HwParam p : arch::all_hw_params()) {
      EXPECT_EQ(values[static_cast<std::size_t>(p)],
                materialised[i].value(p))
          << "index " << i << " param " << arch::hw_param_name(p);
    }
  }
}

TEST(GridCursorTest, EmptyGridIsTheBasePoint) {
  const auto& base = arch::boom_config("C4");
  const GridCursor cursor(base, {});
  ASSERT_EQ(cursor.size(), 1u);
  EXPECT_EQ(cursor.config_at(0), base);
  std::string name;
  cursor.format_name(0, name);
  EXPECT_EQ(name, base.name());
}

TEST(GridCursorTest, StreamsPastTheMaterialisationCap) {
  // 7 axes x 10 values = 1e7 points: the cursor addresses every index
  // without materialising anything.
  const auto& base = arch::boom_config("C8");
  std::vector<SweepAxis> axes;
  const arch::HwParam params[] = {
      arch::HwParam::kRobEntry,       arch::HwParam::kFetchBufferEntry,
      arch::HwParam::kLdqStqEntry,    arch::HwParam::kIntPhyRegister,
      arch::HwParam::kFpPhyRegister,  arch::HwParam::kBranchCount,
      arch::HwParam::kMshrEntry,
  };
  for (const arch::HwParam p : params) {
    SweepAxis axis{p, {}};
    for (int v = 1; v <= 10; ++v) axis.values.push_back(v * 8);
    axes.push_back(std::move(axis));
  }
  const GridCursor cursor(base, axes);
  ASSERT_EQ(cursor.size(), 10'000'000u);
  // Index 0 is the all-first-values point, the last index the
  // all-last-values point; a middle index decodes mixed-radix
  // (first axis slowest).
  EXPECT_EQ(cursor.config_at(0).value(arch::HwParam::kRobEntry), 8);
  const auto last = cursor.config_at(cursor.size() - 1);
  for (const arch::HwParam p : params) EXPECT_EQ(last.value(p), 80);
  const auto mid = cursor.config_at(3'456'789);
  EXPECT_EQ(mid.value(arch::HwParam::kRobEntry), (3 + 1) * 8);
  EXPECT_EQ(mid.value(arch::HwParam::kMshrEntry), (9 + 1) * 8);
  std::string name;
  cursor.format_name(3'456'789, name);
  EXPECT_EQ(name, mid.name());
}

// --- Checkpoint primitives ---------------------------------------------------

TEST(CheckpointTest, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);  // IEEE CRC-32 check value
}

TEST(CheckpointTest, FingerprintCoversIdentityNotRankingKnobs) {
  const auto axes = parse_grid("RobEntry=64,96");
  const std::vector<std::string> workloads = {"dhrystone"};
  const std::string model_fp = "00112233aabbccdd";
  const auto fp = sweep_fingerprint("C8", axes, workloads, model_fp);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, sweep_fingerprint("C8", axes, workloads, model_fp));
  EXPECT_NE(fp, sweep_fingerprint("C4", axes, workloads, model_fp));
  EXPECT_NE(fp, sweep_fingerprint("C8", parse_grid("RobEntry=64,128"),
                                  workloads, model_fp));
  const std::vector<std::string> two = {"dhrystone", "qsort"};
  EXPECT_NE(fp, sweep_fingerprint("C8", axes, two, model_fp));
  // The model's archive fingerprint is part of the sweep identity: a
  // checkpoint written by one model refuses to resume under another.
  EXPECT_NE(fp, sweep_fingerprint("C8", axes, workloads, "ffeeddccbbaa9988"));
}

TEST(CheckpointTest, MissingFileIsAFreshStart) {
  const auto replay =
      load_checkpoint("/nonexistent/autopower.ckpt", "0123456789abcdef",
                      4, 1);
  EXPECT_FALSE(replay.found);
  EXPECT_TRUE(replay.rows.empty());
}

// --- Streaming sweep fixture -------------------------------------------------

core::AutoPowerOptions tiny_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

class StreamSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::PerfSimulator sim;
    power::GoldenPowerModel golden;
    std::vector<core::EvalContext> train;
    for (const std::string config : {"C1", "C15"}) {
      for (const char* w : {"dhrystone", "qsort"}) {
        core::EvalContext ctx;
        ctx.cfg = &arch::boom_config(config);
        ctx.workload = w;
        const auto& profile = workload::workload_by_name(w);
        ctx.program = workload::program_features(profile);
        ctx.events = sim.simulate(*ctx.cfg, profile);
        train.push_back(std::move(ctx));
      }
    }
    auto model = std::make_shared<core::AutoPowerModel>(tiny_options());
    model->train(train, golden, 1);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(std::move(model));
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("autopower_stream_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete dir_;
    delete model_;
    dir_ = nullptr;
    model_ = nullptr;
  }

  static const core::AutoPowerModel& model() { return **model_; }
  static std::string path(const char* name) { return (*dir_ / name).string(); }

  static SweepSpec base_spec() {
    SweepSpec spec;
    spec.base = "C8";
    spec.axes = parse_grid("RobEntry=64,96;MshrEntry=2,4;CacheWay=2,4");
    spec.workloads = {"dhrystone"};
    spec.threads = 2;
    return spec;
  }

  static std::string report_bytes(const SweepReport& report) {
    std::ostringstream out;
    write_sweep_report(out, report);
    return out.str();
  }

  static std::string read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static void write_file(const std::string& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  static std::vector<std::string> lines_of(const std::string& bytes) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < bytes.size()) {
      const std::size_t nl = bytes.find('\n', start);
      if (nl == std::string::npos) break;
      lines.push_back(bytes.substr(start, nl - start));
      start = nl + 1;
    }
    return lines;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
  static std::filesystem::path* dir_;
};

std::shared_ptr<const core::AutoPowerModel>* StreamSweepTest::model_ = nullptr;
std::filesystem::path* StreamSweepTest::dir_ = nullptr;

// --- Checkpoint round trip and resume ---------------------------------------

TEST_F(StreamSweepTest, CheckpointedRunMatchesPlainRunAndRoundTrips) {
  auto spec = base_spec();
  const auto plain = run_sweep(model(), spec);

  spec.checkpoint = path("roundtrip.ckpt");
  const auto checkpointed = run_sweep(model(), spec);
  EXPECT_EQ(report_bytes(plain), report_bytes(checkpointed));
  EXPECT_EQ(checkpointed.resumed, 0u);

  // The finished checkpoint replays every row, and each replayed row
  // re-encodes to its original bytes (that is what the crc certifies).
  const auto fp = sweep_fingerprint(spec.base, spec.axes, spec.workloads,
                                    model().fingerprint());
  const auto replay = load_checkpoint(spec.checkpoint, fp, plain.configs,
                                      spec.workloads.size());
  ASSERT_TRUE(replay.found);
  ASSERT_EQ(replay.rows.size(), plain.configs);
  const GridCursor cursor(arch::boom_config(spec.base), spec.axes);
  std::string name;
  for (const auto& row : replay.rows) {
    ASSERT_LT(row.index, cursor.size());
    cursor.format_name(row.index, name);
    EXPECT_EQ(row.config.name(), name);
    ASSERT_EQ(row.cells.size(), spec.workloads.size());
  }
  EXPECT_EQ(replay.valid_bytes, read_file(spec.checkpoint).size());
}

TEST_F(StreamSweepTest, ResumeAfterTornTailIsByteIdentical) {
  auto spec = base_spec();
  spec.checkpoint = path("resume.ckpt");
  const auto full = run_sweep(model(), spec);
  const auto full_bytes = report_bytes(full);
  const auto complete = read_file(spec.checkpoint);
  const auto lines = lines_of(complete);
  ASSERT_EQ(lines.size(), 1u + full.configs);  // header + one per config

  // A SIGKILL mid-write leaves an intact prefix plus a torn (newline-less)
  // tail.  Resume must drop the tail, replay the prefix, re-evaluate the
  // rest, and reproduce the uninterrupted report byte for byte.
  std::string truncated;
  for (std::size_t i = 0; i < 4; ++i) truncated += lines[i] + "\n";
  truncated += R"({"i":7,"crc":"dead)";  // torn tail, no newline
  write_file(spec.checkpoint, truncated);

  spec.resume = true;
  const auto resumed = run_sweep(model(), spec);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(report_bytes(resumed), full_bytes);

  // The repaired checkpoint is complete again: header + every config,
  // newline-terminated.
  const auto repaired = read_file(spec.checkpoint);
  EXPECT_EQ(lines_of(repaired).size(), 1u + full.configs);
  EXPECT_EQ(repaired.back(), '\n');

  // Resuming a FINISHED checkpoint replays everything and evaluates
  // nothing new; still byte-identical, including under a different
  // ranking metric (the fingerprint deliberately excludes it).
  const auto replayed = run_sweep(model(), spec);
  EXPECT_EQ(replayed.resumed, full.configs);
  EXPECT_EQ(report_bytes(replayed), full_bytes);

  auto reranked = spec;
  reranked.metric = SweepMetric::kPower;
  auto reranked_fresh = base_spec();
  reranked_fresh.metric = SweepMetric::kPower;
  EXPECT_EQ(report_bytes(run_sweep(model(), reranked)),
            report_bytes(run_sweep(model(), reranked_fresh)));
}

TEST_F(StreamSweepTest, CorruptCheckpointLineRefusesResume) {
  auto spec = base_spec();
  spec.checkpoint = path("corrupt.ckpt");
  (void)run_sweep(model(), spec);
  const auto complete = read_file(spec.checkpoint);

  // Flip one payload byte of a newline-TERMINATED row: that is
  // corruption, not a torn tail, and resume must refuse rather than
  // silently skip completed work.
  auto corrupted = complete;
  const auto pos = corrupted.find("\"mean_total_mw\":");
  ASSERT_NE(pos, std::string::npos);
  corrupted[pos + 17] = corrupted[pos + 17] == '9' ? '8' : '9';
  write_file(spec.checkpoint, corrupted);

  spec.resume = true;
  try {
    (void)run_sweep(model(), spec);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("crc mismatch"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos)
        << e.what();
  }

  // A checkpoint written by a DIFFERENT sweep (other grid) is rejected by
  // fingerprint before any row is considered.
  write_file(spec.checkpoint, complete);
  auto other = spec;
  other.axes = parse_grid("RobEntry=64,96;MshrEntry=2,4");
  try {
    (void)run_sweep(model(), other);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }

  // A missing checkpoint file is a fresh start, not corruption.
  auto missing = spec;
  missing.checkpoint = path("never_written.ckpt");
  EXPECT_FALSE(
      load_checkpoint(missing.checkpoint, "x", 1, 1).found);
}

TEST_F(StreamSweepTest, RetrainedModelRefusesStaleCheckpoint) {
  auto spec = base_spec();
  spec.checkpoint = path("retrained.ckpt");
  (void)run_sweep(model(), spec);

  // Same grid, same workloads — but a retrained model.  Its rows would
  // differ from the checkpointed ones, so replaying them would splice
  // stale predictions into the new model's report; the model fingerprint
  // inside the sweep identity makes the resume refuse instead.
  auto opts = tiny_options();
  opts.clock.gbt.num_rounds = 4;
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  std::vector<core::EvalContext> train;
  for (const std::string config : {"C1", "C15"}) {
    core::EvalContext ctx;
    ctx.cfg = &arch::boom_config(config);
    ctx.workload = "dhrystone";
    const auto& profile = workload::workload_by_name("dhrystone");
    ctx.program = workload::program_features(profile);
    ctx.events = sim.simulate(*ctx.cfg, profile);
    train.push_back(std::move(ctx));
  }
  core::AutoPowerModel retrained(opts);
  retrained.train(train, golden, 1);
  ASSERT_NE(retrained.fingerprint(), model().fingerprint());

  spec.resume = true;
  try {
    (void)run_sweep(retrained, spec);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
}

// --- Top-k, budget, clamp, failed rows ---------------------------------------

TEST_F(StreamSweepTest, TopKEqualsTheFullSortPrefix) {
  auto spec = base_spec();
  spec.workloads = {"dhrystone", "qsort"};
  const auto full = run_sweep(model(), spec);
  const auto full_lines = lines_of(report_bytes(full));

  for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                              std::size_t{100}}) {
    auto top_spec = spec;
    top_spec.top = k;
    const auto top = run_sweep(model(), top_spec);
    const auto top_lines = lines_of(report_bytes(top));
    ASSERT_EQ(top_lines.size(), std::min(k, full_lines.size())) << "k=" << k;
    for (std::size_t i = 0; i < top_lines.size(); ++i) {
      EXPECT_EQ(top_lines[i], full_lines[i]) << "k=" << k << " row " << i;
    }
  }
}

TEST_F(StreamSweepTest, MemoryBudgetedRunIsByteIdentical) {
  auto spec = base_spec();
  const auto unbounded = run_sweep(model(), spec);
  // The smallest accepted budget still answers identically — eviction
  // only ever costs recomputation, never a different value.
  auto bounded_spec = spec;
  bounded_spec.memory_budget = 1;  // floor-clamped to the minimum capacity
  const auto bounded = run_sweep(model(), bounded_spec);
  EXPECT_EQ(report_bytes(unbounded), report_bytes(bounded));
}

TEST_F(StreamSweepTest, OversubscribedThreadRequestIsClampedNotHonoured) {
  auto spec = base_spec();
  spec.threads = 1;
  const auto serial = run_sweep(model(), spec);
  // A thread request far past hardware_concurrency must neither crash nor
  // change the report (the pool is clamped, not oversubscribed).
  spec.threads = 100'000;
  const auto clamped = run_sweep(model(), spec);
  EXPECT_EQ(report_bytes(serial), report_bytes(clamped));
}

TEST_F(StreamSweepTest, FailedCellCountsRankLastAndSerialise) {
  SweepSpec spec;
  spec.base = "C8";
  // ICacheFetchBytes=3 breaks the power-of-two cache-set constraint for
  // exactly one grid point.
  spec.axes = parse_grid("ICacheFetchBytes=2,3,4");
  spec.workloads = {"dhrystone"};
  const auto report = run_sweep(model(), spec);
  ASSERT_EQ(report.rows.size(), 3u);
  const auto& last = report.rows.back();
  EXPECT_EQ(last.failed, last.cells.size());  // all-failed row sorts last
  EXPECT_EQ(report.rows.front().failed, 0u);

  const auto lines = lines_of(report_bytes(report));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"failed\":0"), std::string::npos) << lines[0];
  EXPECT_NE(lines[2].find("\"failed\":1"), std::string::npos) << lines[2];
}

TEST_F(StreamSweepTest, ResumePlusTopKStillMatches) {
  auto spec = base_spec();
  spec.top = 3;
  const auto full = run_sweep(model(), spec);

  spec.checkpoint = path("topk.ckpt");
  (void)run_sweep(model(), spec);
  const auto lines = lines_of(read_file(spec.checkpoint));
  std::string prefix;
  for (std::size_t i = 0; i < 3; ++i) prefix += lines[i] + "\n";
  write_file(spec.checkpoint, prefix);

  spec.resume = true;
  const auto resumed = run_sweep(model(), spec);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(report_bytes(resumed), report_bytes(full));
}

}  // namespace
}  // namespace autopower::serve

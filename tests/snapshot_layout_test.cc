// Pins the snapshot byte layout of every driver against checked-in
// fixtures (tests/data/), compared section by section with the same rule
// as `pabr_snapshot --diff` (snapshot::differences: header fields except
// the git sha and build type, then every section's payload).
//
//   linear_t10.pabrsnap           a 10-cell ring at t = 10 s;
//   linear_t10_resaved.pabrsnap   the same state after one load + save;
//   hex_2x3_t120.pabrsnap         a 2x3 hex grid at t = 120 s with
//                                 telemetry, tracing and station faults,
//                                 already in its load + save form;
//   sharded_2x3_ckpt.pabrsnap     the sharded checkpoint of that grid at
//                                 t = 120 s (slot 5, warm-up 30 s).
//
// A load re-books every pending event with fresh consecutive insertion
// seqs (their relative order is all the calendar needs), so the first
// load + save of a live-run snapshot rewrites the seqs stored in the
// "mobiles" and "arrival" sections; after that the form is a fixed point.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hex_system.h"
#include "core/system.h"
#include "sim/sharded/executor.h"
#include "snapshot/format.h"

namespace pabr {
namespace {

std::string fixture(const std::string& name) {
  return std::string(PABR_TEST_DATA_DIR) + "/" + name;
}

snapshot::Reader read(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return snapshot::Reader(is);
}

snapshot::Reader read_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return snapshot::Reader(is);
}

template <class System>
std::string load_and_save(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  auto sys = System::load(is);
  std::ostringstream os;
  sys->save(os);
  return os.str();
}

/// The section names of `diffs` ("section <name> ..." lines), in order.
std::vector<std::string> section_names(const std::vector<std::string>& diffs) {
  std::vector<std::string> names;
  for (const std::string& line : diffs) {
    std::istringstream words(line);
    std::string kind;
    std::string name;
    words >> kind >> name;
    names.push_back(kind + " " + name);
  }
  return names;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(SnapshotLayoutTest, LinearFixtureSavesBackItsSections) {
  const std::string path = fixture("linear_t10.pabrsnap");
  const snapshot::Reader saved =
      read_bytes(load_and_save<core::CellularSystem>(path));
  // Only the two sections carrying pending-event seqs are rewritten.
  const auto diffs = snapshot::differences(read(path), saved);
  EXPECT_EQ(section_names(diffs),
            (std::vector<std::string>{"section mobiles", "section arrival"}))
      << joined(diffs);
  const auto resaved_diffs = snapshot::differences(
      read(fixture("linear_t10_resaved.pabrsnap")), saved);
  EXPECT_TRUE(resaved_diffs.empty()) << joined(resaved_diffs);
}

TEST(SnapshotLayoutTest, LinearResavedFixtureIsAFixedPoint) {
  const std::string path = fixture("linear_t10_resaved.pabrsnap");
  const auto diffs = snapshot::differences(
      read(path), read_bytes(load_and_save<core::CellularSystem>(path)));
  EXPECT_TRUE(diffs.empty()) << joined(diffs);
}

TEST(SnapshotLayoutTest, HexFixtureSavesBackEverySection) {
  const std::string path = fixture("hex_2x3_t120.pabrsnap");
  const snapshot::Reader fixed = read(path);
  for (const char* name : {"telemetry", "fault", "engine", "accountant"}) {
    ASSERT_TRUE(fixed.has_section(name)) << name;
  }
  const auto diffs = snapshot::differences(
      fixed, read_bytes(load_and_save<core::HexCellularSystem>(path)));
  EXPECT_TRUE(diffs.empty()) << joined(diffs);
}

/// The configuration the sharded fixture was written under.
sim::sharded::ShardedConfig sharded_fixture_config(int shards) {
  sim::sharded::ShardedConfig sc;
  core::HexSystemConfig& cfg = sc.system;
  cfg.rows = 2;
  cfg.cols = 3;
  cfg.wrap = false;
  cfg.policy = admission::PolicyKind::kAc3;
  cfg.seed = 11;
  cfg.set_offered_load(60.0);
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace_capacity = 256;
  cfg.fault.enabled = true;
  cfg.fault.seed = 5;
  cfg.fault.station_mtbf_s = 300.0;
  cfg.fault.station_mttr_s = 60.0;
  cfg.fault.message_loss = 0.05;
  sc.shards = shards;
  sc.duration_s = 150.0;
  sc.warmup_s = 30.0;
  return sc;
}

TEST(SnapshotLayoutTest, ShardedCheckpointMatchesFixtureAtEveryShardCount) {
  const snapshot::Reader fixed = read(fixture("sharded_2x3_ckpt.pabrsnap"));
  for (const int shards : {1, 2, 4}) {
    sim::sharded::ShardedConfig sc = sharded_fixture_config(shards);
    sc.checkpoint_every_s = 60.0;
    sc.checkpoint_path = ::testing::TempDir() + "pabr_layout_ckpt_" +
                         std::to_string(shards) + ".pabrsnap";
    sim::sharded::ShardedExecutor(sc).run();
    const auto diffs = snapshot::differences(fixed, read(sc.checkpoint_path));
    EXPECT_TRUE(diffs.empty()) << shards << " shards\n" << joined(diffs);
  }
}

TEST(SnapshotLayoutTest, ShardedFixtureResumesToTheUninterruptedRun) {
  const sim::sharded::ShardedResult straight =
      sim::sharded::ShardedExecutor(sharded_fixture_config(1)).run();
  // The end state the fixture's own run reached.
  EXPECT_EQ(straight.digest, 0x15568639e23aa679u);
  EXPECT_EQ(straight.events, 1318u);
  for (const int shards : {1, 3}) {
    sim::sharded::ShardedConfig sc = sharded_fixture_config(shards);
    sc.resume_from = fixture("sharded_2x3_ckpt.pabrsnap");
    const sim::sharded::ShardedResult resumed =
        sim::sharded::ShardedExecutor(sc).run();
    EXPECT_EQ(resumed.digest, straight.digest) << shards << " shards";
    EXPECT_EQ(resumed.events, straight.events) << shards << " shards";
  }
}

}  // namespace
}  // namespace pabr

// The sharded executor on a small wrap-around hex torus, run by every
// workload outside its timed phase: checks that the digest does not
// depend on the shard count, and gives the traced run its sharded.* rows.
#include <string>

#include "bench.h"
#include "probes.h"
#include "sim/sharded/executor.h"

namespace perfbench {
namespace {

namespace sh = pabr::sim::sharded;

// 16 x 16 grid under AC2 at an offered load about the cell capacity, so
// blocks happen; 300 simulated seconds at 2 and then 1 shard.
constexpr int kSide = 16;
constexpr int kShards = 2;
constexpr double kLoad = 100.0;
constexpr double kDuration = 300.0;

sh::ShardedConfig torus(std::uint64_t seed) {
  sh::ShardedConfig cfg;
  cfg.system.rows = kSide;
  cfg.system.cols = kSide;
  cfg.system.wrap = true;
  cfg.system.policy = pabr::admission::PolicyKind::kAc2;
  cfg.system.set_offered_load(kLoad);
  cfg.system.seed = seed;
  cfg.shards = kShards;
  cfg.duration_s = kDuration;
  cfg.warmup_s = 0.0;
  return cfg;
}

}  // namespace

void sharded_reference(const Options& opt, Report& report,
                       LayerTimes& times) {
  ++report.sim_attempted;
  try {
    sh::ShardedConfig cfg = torus(opt.seed);
    sh::ShardedResult two;
    {
      Scoped s(report.spans, "sharded.loop_2");
      two = sh::ShardedExecutor(cfg).run();
    }
    cfg.shards = 1;
    sh::ShardedResult one;
    {
      Scoped s(report.spans, "sharded.loop_1");
      one = sh::ShardedExecutor(cfg).run();
    }
    report.metric("sharded.loop_1_s", one.wall_seconds);
    report.metric("sharded.loop_2_s", two.wall_seconds);
    report.metric("sharded.speedup", one.wall_seconds / two.wall_seconds);
    report.check(digests_equal("reference.digest_1_vs_2_shards", one.digest,
                               two.digest));
    if (!opt.trace) return;
    time_sharded_calendar(
        (two.active_connections + kSide * kSide) / kShards, opt.seed, times,
        report.spans);
  } catch (const std::exception& e) {
    ++report.sim_failed;
    report.errors.push_back(std::string("reference.simulation: ") + e.what());
  }
}

}  // namespace perfbench

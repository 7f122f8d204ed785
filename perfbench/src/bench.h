// Shared types of the benchmark harness: the run options, the report a
// workload fills in, and the per-layer accumulators of the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Scales each workload's simulated horizon; on the reference host
  /// (README.md) the timed phase then takes about this many host seconds.
  double seconds = 10.0;
  bool trace = false;
};

struct Report {
  std::vector<Check> checks;
  int sim_attempted = 0;  ///< simulations started
  int sim_failed = 0;     ///< simulations that threw
  std::map<std::string, double> metrics;  ///< name -> value
  std::map<std::string, std::uint64_t> digests;
  std::vector<std::string> errors;  ///< what the failed simulations threw
  SpanLog spans;

  void check(Check c) { checks.push_back(std::move(c)); }
  void metric(const std::string& name, double value) {
    metrics[name] = value;
  }
};

/// Per-layer sums (host seconds, bytes, ...) and the operation counts they
/// cover, turned into per-operation means when the run ends.
class LayerTimes {
 public:
  void add(const std::string& name, double total, double ops) {
    Acc& a = acc_[name];
    a.total += total;
    a.ops += ops;
  }
  /// total / ops; 0 when nothing was recorded under `name`.
  double mean(const std::string& name) const;

 private:
  struct Acc {
    double total = 0.0;
    double ops = 0.0;
  };
  std::map<std::string, Acc> acc_;
};

/// Converts the timings in `times` into the per-layer metrics of the
/// traced run (hoef.*_ns, reservation.*_ns, admission.ac*_ns, sim.*,
/// sharded.calendar_ns, snapshot.*).
void emit_layer_times(const LayerTimes& times, Report& report);

/// The sharded executor on a small hex torus at 2 and 1 shards, outside
/// the timed phase: checks the digests agree, and gives the traced run its
/// sharded.* rows.
void sharded_reference(const Options& opt, Report& report,
                       LayerTimes& times);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

void run_ring_stationary(const Options& opt, Report& report);
void run_ring_daily(const Options& opt, Report& report);

}  // namespace perfbench

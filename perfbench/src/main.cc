// pabr_perfbench — runs one benchmark workload and prints its report as
// one JSON line (README.md). run.py builds this binary and turns the report
// into the benchmark's result line.
//
//   pabr_perfbench --workload ring_stationary|ring_daily
//                  --seed N --seconds S --trace 0|1
//                  [--spans-out PATH] [--checks-out PATH]
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Row {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0).
const std::vector<Row> kEndToEnd = {
    {"sim_s_per_s", "s/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

// The per-layer metrics (--trace 1).
const std::vector<Row> kPerLayer = {
    {"hoef.probe_ns", "ns"},
    {"hoef.rebuild_ns", "ns"},
    {"hoef.cached_events", "count"},
    {"reservation.recompute_ns", "ns"},
    {"reservation.rescan_ns", "ns"},
    {"reservation.term_reuse", "ratio"},
    {"admission.ac1_ns", "ns"},
    {"admission.ac2_ns", "ns"},
    {"admission.ac3_ns", "ns"},
    {"admission.n_calc", "count"},
    {"traffic.retries", "count"},
    {"backhaul.messages_per_request", "count"},
    {"sim.queue_ns", "ns"},
    {"sim.pending_events", "count"},
    {"sim.rng_draw_ns", "ns"},
    {"sharded.calendar_ns", "ns"},
    {"sharded.loop_1_s", "s"},
    {"sharded.loop_2_s", "s"},
    {"sharded.speedup", "ratio"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"core.events", "count"},
    {"core.requests", "count"},
    {"core.handoffs", "count"},
    {"core.ns_per_event", "ns"},
    {"trace.sim_s_per_s", "s/s"},
    {"trace.raw_sim_s_per_s", "s/s"},
    {"host.speed", "ratio"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Every check with its verdict and the values it compared, one JSON
/// object per line.
bool write_checks(const std::vector<Check>& checks, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Check& c : checks) {
    std::fprintf(f, "{\"name\": %s, \"ok\": %s, \"detail\": %s}\n",
                 json_string(c.name).c_str(), c.ok ? "true" : "false",
                 json_string(c.detail).c_str());
  }
  return std::fclose(f) == 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pabr_perfbench: %s\nusage: pabr_perfbench --workload "
               "ring_stationary|ring_daily --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH] [--checks-out PATH]\n",
               why);
  return 2;
}

}  // namespace

void emit_layer_times(const LayerTimes& t, Report& r) {
  r.metric("hoef.probe_ns", t.mean("hoef.probe_s") * 1e9);
  r.metric("hoef.rebuild_ns", t.mean("hoef.rebuild_s") * 1e9);
  r.metric("reservation.recompute_ns",
           t.mean("reservation.recompute_s") * 1e9);
  r.metric("reservation.rescan_ns", t.mean("reservation.rescan_s") * 1e9);
  r.metric("admission.ac1_ns", t.mean("admission.ac1_s") * 1e9);
  r.metric("admission.ac2_ns", t.mean("admission.ac2_s") * 1e9);
  r.metric("admission.ac3_ns", t.mean("admission.ac3_s") * 1e9);
  r.metric("sim.queue_ns", t.mean("sim.queue_s") * 1e9);
  r.metric("sim.pending_events", t.mean("sim.pending_events"));
  r.metric("sim.rng_draw_ns", t.mean("sim.rng_draw_s") * 1e9);
  r.metric("sharded.calendar_ns", t.mean("sharded.calendar_s") * 1e9);
  r.metric("snapshot.save_ms", t.mean("snapshot.save_s") * 1e3);
  r.metric("snapshot.load_ms", t.mean("snapshot.load_s") * 1e3);
  r.metric("snapshot.bytes", t.mean("snapshot.bytes"));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  now_s();  // starts the clock every span and setup_s is measured from
  Options opt;
  std::string spans_out;
  std::string checks_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--checks-out") {
      checks_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_trace) return usage("--trace is required");

  Report report;
  if (opt.workload == "ring_stationary") {
    run_ring_stationary(opt, report);
  } else if (opt.workload == "ring_daily") {
    run_ring_daily(opt, report);
  } else {
    return usage("unknown --workload");
  }

  int failed = report.sim_failed;
  std::string failed_checks;
  for (const Check& c : report.checks) {
    if (c.ok) continue;
    ++failed;
    if (!failed_checks.empty()) failed_checks += ", ";
    failed_checks += json_string(c.name + ": " + c.detail);
  }
  for (const std::string& e : report.errors) {
    if (!failed_checks.empty()) failed_checks += ", ";
    failed_checks += json_string(e);
  }
  const int attempted =
      report.sim_attempted + static_cast<int>(report.checks.size());

  std::string metrics;
  const std::vector<Row>& rows = opt.trace ? kPerLayer : kEndToEnd;
  for (const Row& row : rows) {
    const auto it = report.metrics.find(row.name);
    if (it == report.metrics.end()) {
      // Only a failed simulation may leave a metric unmeasured.
      if (report.sim_failed == 0) {
        std::fprintf(stderr, "pabr_perfbench: metric %s not measured\n",
                     row.name);
        return 1;
      }
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": "
                  "\"%s\"}", metrics.empty() ? "" : ", ", row.name,
                  std::isfinite(it->second) ? it->second : 0.0,
                  row.unit);
    metrics += buf;
  }
  // Every other figure the workload measured goes into the run record.
  std::string extras;
  for (const auto& [name, value] : report.metrics) {
    bool listed = false;
    for (const Row& row : rows) listed = listed || name == row.name;
    if (listed) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  extras.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0);
    extras += buf;
  }
  std::string digests;
  for (const auto& [name, value] : report.digests) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": \"%016llx\"",
                  digests.empty() ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(value));
    digests += buf;
  }
  if (!spans_out.empty() && !report.spans.write_json(spans_out)) {
    std::fprintf(stderr, "pabr_perfbench: cannot write %s\n",
                 spans_out.c_str());
    return 1;
  }
  if (!checks_out.empty() && !write_checks(report.checks, checks_out)) {
    std::fprintf(stderr, "pabr_perfbench: cannot write %s\n",
                 checks_out.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}, \"extras\": {%s}, \"digests\": {%s}, "
              "\"failures\": [%s]}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.c_str(), extras.c_str(), digests.c_str(),
              failed_checks.c_str());
  return 0;
}

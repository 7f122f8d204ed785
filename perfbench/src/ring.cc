// The two 1-D ring workloads: the paper's §5.2 stationary set-up under
// AC1, AC2 and AC3 (Fig. 12), and the §5.3 time-varying day under AC3.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "audit/differential.h"
#include "bench.h"
#include "core/scenario.h"
#include "core/system.h"
#include "host_speed.h"
#include "probes.h"
#include "traffic/profiles.h"

namespace perfbench {
namespace {

namespace core = pabr::core;
using pabr::admission::PolicyKind;

// §5.2: offered load per cell L (Eq. 7, BU), the warm-up before the
// metrics reset, and the P_HD target of §5.1.
constexpr double kStationaryLoad = 300.0;
constexpr double kStationaryWarmup = 2000.0;
constexpr double kPhdTarget = 0.01;
// Simulated seconds of each policy's timed phase per --seconds. The three
// policies share --seconds, so on the reference host the timed phases of
// a run add up to about --seconds.
constexpr double kStationarySimPerSecond = 330.0;

// §5.3: the set-up runs from midnight through the quiet night; the timed
// phase starts here and covers kDailySimPerSecond * --seconds of the
// morning busy hours.
constexpr double kDailyStart = 6.0 * 3600.0;
constexpr double kDailySimPerSecond = 780.0;

// Carried-load tolerances (Eq. 7) for the mean over cells of the
// time-averaged B_u, relative to L * (1 - P_CB); README.md gives the
// spread they were set from.
constexpr double kCarriedAbove = 0.03;
constexpr double kCarriedBelow = 0.10;
// Standard deviations of an hour's Poisson request count by which the
// actual offered load may fall short of the profile.
constexpr double kOfferedZ = 5.0;

// Pause points of the traced run inside each timed phase.
constexpr int kPauses = 3;
// Simulated seconds per run_until call of the timed phase: a few host
// milliseconds, so the host-speed meter can sample between calls.
constexpr double kChunk = 10.0;

/// What one timed ring simulation leaves behind for the metrics.
struct RingRun {
  core::SystemStatus status;
  double sim_s = 0.0;
  double wall_s = 0.0;  ///< host seconds of the timed phase (pauses excluded)
  double ref_s = 0.0;   ///< wall_s scaled by the host-speed factor
  std::uint64_t events = 0;
  std::uint64_t terms_reused = 0;
  std::uint64_t terms_recomputed = 0;
  std::uint64_t retries = 0;
  double cached_events = 0.0;
  std::size_t active = 0;
};

void enable_counters(core::SystemConfig& cfg) {
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace = false;
  cfg.telemetry.time_admissions = false;
}

/// run_until(end) in kChunk steps, with a host-speed lap after each.
void run_chunked(core::CellularSystem& sys, double end, SpeedMeter& meter) {
  for (double t = sys.now(); t < end;) {
    t = std::min(end, t + kChunk);
    sys.run_until(t);
    meter.lap();
  }
}

/// Runs the timed phase from sys.now() to `end`. The traced run pauses at
/// kPauses evenly spaced instants and probes a copy of the system there;
/// the trajectory is the same as one uninterrupted run_until(end).
void timed_phase(core::CellularSystem& sys, double end, const Options& opt,
                 const std::string& tag, Report& report, LayerTimes& times,
                 RingRun& run) {
  const double start = sys.now();
  const std::uint64_t events0 = sys.events_executed();
  const int segments = opt.trace ? kPauses + 1 : 1;
  for (int k = 1; k <= segments; ++k) {
    const double until =
        k == segments
            ? end
            : start + (end - start) * static_cast<double>(k) / segments;
    {
      Scoped s(report.spans, "timed." + tag);
      SpeedMeter meter;
      run_chunked(sys, until, meter);
      meter.finish();
      run.wall_s += meter.wall_s();
      run.ref_s += meter.ref_s();
    }
    if (k < segments) {
      CopyProbe probe{times, report, tag + ".pause" + std::to_string(k)};
      probe_copy(sys, probe);
    }
  }
  run.sim_s = end - start;
  run.events = sys.events_executed() - events0;
}

/// End-of-run checks and figures shared by both ring workloads.
void finish(core::CellularSystem& sys, const std::string& tag,
            Report& report, RingRun& run) {
  Scoped s(report.spans, "checks." + tag);
  run.status = sys.system_status();
  run.active = sys.active_connections();
  const int n = sys.config().num_cells;
  for (int c = 0; c < n; ++c) {
    run.cached_events +=
        static_cast<double>(sys.base_station(c).estimator().cached_events());
  }
  report.digests[tag] = pabr::audit::trajectory_digest(sys);
  if (sys.telemetry().enabled()) {
    const auto snap = sys.telemetry_snapshot();
    run.terms_reused = snap.counter("reservation.terms_reused");
    run.terms_recomputed = snap.counter("reservation.terms_recomputed");
    run.retries = snap.counter("admission.retries");
  }
  // After the digest: recompute_reservation stores B_r^curr.
  for (int c = 0; c < n; ++c) {
    const std::string cell = tag + ".cell" + std::to_string(c);
    const double scratch = sys.scratch_reservation(c);
    const double incremental = sys.recompute_reservation(c);
    report.check(bitwise_equal(cell + ".br_bitwise", incremental, scratch));
    report.check(bu_within_capacity(cell + ".bu", sys.used_bandwidth(c),
                                    sys.capacity(c)));
  }
}

/// Builds the system, runs the set-up, the timed phase and the checks;
/// returns false (and counts a failed simulation) if the program threw.
bool run_ring(const core::SystemConfig& cfg, double warmup_end,
              double timed_end, const Options& opt, const std::string& tag,
              bool first, Report& report, LayerTimes& times, RingRun& run,
              std::unique_ptr<core::CellularSystem>& out) {
  ++report.sim_attempted;
  try {
    double setup_s = 0.0;
    {
      Scoped s(report.spans, "setup." + tag);
      out = std::make_unique<core::CellularSystem>(cfg);
      // The warm-up's host seconds are scaled like the timed phase's.
      const double built = now_s();
      SpeedMeter meter;
      run_chunked(*out, warmup_end, meter);
      out->reset_metrics();
      meter.finish();
      setup_s = built + meter.ref_s();
    }
    if (first) report.metric("setup_s", setup_s);
    timed_phase(*out, timed_end, opt, tag, report, times, run);
    report.metric("peak_rss_mb", peak_rss_mb());
    finish(*out, tag, report, run);
    return true;
  } catch (const std::exception& e) {
    ++report.sim_failed;
    report.errors.push_back(tag + ".simulation: " + e.what());
    return false;
  }
}

/// Simulated seconds per host second over the timed phases: scaled by the
/// host-speed factor (the end-to-end figure) and as read off the clock.
void rate_metrics(const std::vector<RingRun>& runs, Report& report) {
  double sim = 0.0, wall = 0.0, ref = 0.0;
  for (const RingRun& r : runs) {
    sim += r.sim_s;
    wall += r.wall_s;
    ref += r.ref_s;
  }
  report.metric("sim_s_per_s", sim / ref);
  report.metric("trace.sim_s_per_s", sim / ref);
  report.metric("trace.raw_sim_s_per_s", sim / wall);
  report.metric("host.speed", ref / wall);
}

/// Per-layer figures common to both ring workloads.
void ring_layers(const std::vector<RingRun>& runs, const Options& opt,
                 Report& report, LayerTimes& times) {
  double wall = 0.0, events = 0.0, requests = 0.0,
         handoffs = 0.0, messages = 0.0, reused = 0.0, recomputed = 0.0,
         retries = 0.0;
  for (const RingRun& r : runs) {
    wall += r.wall_s;
    events += static_cast<double>(r.events);
    requests += static_cast<double>(r.status.requests);
    handoffs += static_cast<double>(r.status.handoffs);
    messages += static_cast<double>(r.status.backhaul_messages);
    reused += static_cast<double>(r.terms_reused);
    recomputed += static_cast<double>(r.terms_recomputed);
    retries += static_cast<double>(r.retries);
  }
  const RingRun& last = runs.back();
  report.metric("core.events", events);
  report.metric("core.requests", requests);
  report.metric("core.handoffs", handoffs);
  report.metric("core.ns_per_event", wall / events * 1e9);
  report.metric("reservation.term_reuse",
                reused + recomputed > 0.0 ? reused / (reused + recomputed)
                                          : 0.0);
  report.metric("traffic.retries", retries);
  report.metric("backhaul.messages_per_request", messages / requests);
  report.metric("admission.n_calc", last.status.n_calc);
  report.metric("hoef.cached_events", last.cached_events);
  // The ring's calendar holds an expiry and a crossing per mobile plus the
  // next arrival; its three RNG streams are workload, retry and route.
  time_event_queue(2 * last.active + 1, opt.seed, times, report.spans);
  time_rng_draws(3, opt.seed, times, report.spans);
}

/// Mean of the paper's load profile over hour `h` of the day.
double profile_hour_mean(const pabr::traffic::DailyProfile& p, int h) {
  constexpr int kSteps = 3600;
  double sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    sum += p.at(3600.0 * h + (i + 0.5));
  }
  return sum / kSteps;
}

}  // namespace

void run_ring_stationary(const Options& opt, Report& report) {
  LayerTimes times;
  const double measure = opt.seconds * kStationarySimPerSecond;
  const PolicyKind kinds[] = {PolicyKind::kAc1, PolicyKind::kAc2,
                              PolicyKind::kAc3};
  std::vector<RingRun> runs;
  for (const PolicyKind kind : kinds) {
    core::StationaryParams p;
    p.offered_load = kStationaryLoad;
    p.voice_ratio = 1.0;
    p.mobility = core::Mobility::kHigh;
    p.policy = kind;
    p.seed = opt.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    if (opt.trace) enable_counters(cfg);
    const std::string tag = pabr::admission::policy_kind_name(kind);
    RingRun run;
    std::unique_ptr<core::CellularSystem> sys;
    if (!run_ring(cfg, kStationaryWarmup, kStationaryWarmup + measure, opt,
                  tag, runs.empty(), report, times, run, sys)) {
      return;
    }
    // R_vo = 1: every connection is a 1-BU voice call.
    const double load =
        cfg.workload.arrival_rate_per_cell * cfg.workload.mean_lifetime_s;
    report.check(carried_load(tag + ".carried_load", run.status.bu_avg, load,
                              run.status.pcb, kCarriedAbove, kCarriedBelow));
    runs.push_back(run);
  }
  const core::SystemStatus& ac1 = runs[0].status;
  const core::SystemStatus& ac2 = runs[1].status;
  const core::SystemStatus& ac3 = runs[2].status;
  report.check(n_calc_exact("AC1.n_calc", ac1.n_calc, 1.0));
  report.check(n_calc_exact("AC2.n_calc", ac2.n_calc, 3.0));
  report.check(n_calc_between("AC3.n_calc", ac3.n_calc, 1.0, 3.0));
  report.check(phd_below("AC2.phd", ac2.phd, kPhdTarget, ac1.phd));
  report.check(phd_below("AC3.phd", ac3.phd, kPhdTarget, ac1.phd));

  rate_metrics(runs, report);
  sharded_reference(opt, report, times);
  if (opt.trace) {
    ring_layers(runs, opt, report, times);
    emit_layer_times(times, report);
  }
}

void run_ring_daily(const Options& opt, Report& report) {
  LayerTimes times;
  core::TimeVaryingParams p;
  p.voice_ratio = 1.0;
  p.policy = PolicyKind::kAc3;
  p.seed = opt.seed;
  core::SystemConfig cfg = core::time_varying_config(p);
  if (opt.trace) enable_counters(cfg);
  const double end = kDailyStart + opt.seconds * kDailySimPerSecond;
  RingRun run;
  std::unique_ptr<core::CellularSystem> sys;
  if (!run_ring(cfg, kDailyStart, end, opt, "daily", true, report, times,
                run, sys)) {
    return;
  }
  report.check(n_calc_between("daily.n_calc", run.status.n_calc, 1.0, 3.0));

  // Every whole hour simulated: retries only add attempts on top of the
  // profile's first attempts.
  const auto profile = pabr::traffic::paper_load_profile();
  const auto hourly = sys->offered_load().hourly();
  const double lifetime = cfg.workload.mean_lifetime_s;
  const int whole_hours = static_cast<int>(std::floor(end / 3600.0));
  for (int h = 0; h < whole_hours; ++h) {
    const double expected = profile_hour_mean(profile, h % 24);
    // First attempts in the hour over all cells (voice: 1 BU each).
    const double requests = expected / lifetime * 3600.0 * cfg.num_cells;
    const double actual =
        static_cast<std::size_t>(h) < hourly.size()
            ? hourly[static_cast<std::size_t>(h)].load
            : 0.0;
    report.check(offered_load_at_least("daily.hour" + std::to_string(h) +
                                           ".offered_load",
                                       actual, expected, requests,
                                       kOfferedZ));
  }

  rate_metrics({run}, report);
  sharded_reference(opt, report, times);
  if (opt.trace) {
    ring_layers({run}, opt, report, times);
    emit_layer_times(times, report);
  }
}

}  // namespace perfbench

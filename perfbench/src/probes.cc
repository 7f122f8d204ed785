#include "probes.h"

#include <array>
#include <memory>
#include <sstream>
#include <vector>

#include "admission/policy.h"
#include "core/system.h"
#include "hoef/quadruplet.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/sharded/calendar.h"

namespace perfbench {
namespace {

// Results of timed calls land here so the calls cannot be optimised away.
volatile double g_sink = 0.0;

// Reservation/admission rounds per call kind, the copy's advance before
// each round, and the forced-rebuild rounds.
constexpr int kRoundsPerKind = 5;
constexpr double kStepS = 1.0;
constexpr int kRebuildRounds = 3;

/// p_h of every live connection towards every neighbour of its cell.
std::size_t probe_pass(pabr::core::CellularSystem& sys, double& sink) {
  const pabr::sim::Time t = sys.now();
  std::size_t n = 0;
  for (int c = 0; c < sys.config().num_cells; ++c) {
    const auto& station = sys.base_station(c);
    const auto& est = station.estimator();
    const double t_est = station.window().t_est();
    const auto& next_cells = sys.adjacent(c);
    for (const auto& entry : sys.cell(c).connections()) {
      const double extant = t - entry.view.entered_cell_at;
      for (const int next : next_cells) {
        sink += est.handoff_probability_probe(t, entry.view.prev_cell, next,
                                              extant, t_est)
                    .probability;
        ++n;
      }
    }
  }
  return n;
}

}  // namespace

double LayerTimes::mean(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() || it->second.ops == 0.0
             ? 0.0
             : it->second.total / it->second.ops;
}

void probe_copy(pabr::core::CellularSystem& live, CopyProbe& p) {
  using System = pabr::core::CellularSystem;
  SpanLog& spans = p.report.spans;
  LayerTimes& times = p.times;
  Scoped probe_span(spans, "probe_copy");

  std::stringstream buf;
  {
    Scoped s(spans, "snapshot.save");
    live.save(buf);
    times.add("snapshot.save_s", s.close(1), 1);
  }
  times.add("snapshot.bytes", static_cast<double>(buf.tellp()), 1);
  std::unique_ptr<System> copy;
  {
    Scoped s(spans, "snapshot.load");
    copy = System::load(buf);
    times.add("snapshot.load_s", s.close(1), 1);
  }
  System& sys = *copy;
  const int n_cells = sys.config().num_cells;

  // The pause-point checks: exact incremental reservation and occupancy
  // within capacity, cell by cell. load() leaves the pair term caches
  // empty, so this compares a cold recompute with the rescan; the check
  // after the rounds below runs on caches the copy's own events refilled.
  const auto check_cells = [&](const std::string& suffix) {
    Scoped s(spans, "checks.pause");
    for (int c = 0; c < n_cells; ++c) {
      const double scratch = sys.scratch_reservation(c);
      const double incremental = sys.recompute_reservation(c);
      const std::string cell = p.tag + ".cell" + std::to_string(c);
      p.report.check(bitwise_equal(cell + ".br_bitwise" + suffix,
                                   incremental, scratch));
      p.report.check(bu_within_capacity(cell + ".bu" + suffix,
                                        sys.used_bandwidth(c),
                                        sys.capacity(c)));
    }
  };
  check_cells("");

  double sink = 0.0;
  {
    // First pass builds any snapshot the load left stale; the second
    // times lookups alone.
    probe_pass(sys, sink);
    Scoped s(spans, "hoef.probe");
    const std::size_t n = probe_pass(sys, sink);
    times.add("hoef.probe_s", s.close(static_cast<double>(n)),
              static_cast<double>(n));
  }

  // Reservation and admission calls, one kind per round, each round after
  // a short advance of the copy so the pair caches hold the mix of fresh
  // and stale terms an admission test meets in the live run.
  {
    const std::array<pabr::admission::PolicyKind, 3> kinds = {
        pabr::admission::PolicyKind::kAc1, pabr::admission::PolicyKind::kAc2,
        pabr::admission::PolicyKind::kAc3};
    std::array<std::unique_ptr<pabr::admission::AdmissionPolicy>, 3> policy;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      policy[i] = pabr::admission::make_policy(kinds[i]);
    }
    static const std::array<const char*, 5> names = {
        "reservation.recompute", "reservation.rescan", "admission.ac1",
        "admission.ac2", "admission.ac3"};
    const pabr::sim::Time t0 = sys.now();
    const int rounds = kRoundsPerKind * static_cast<int>(names.size());
    for (int r = 0; r < rounds; ++r) {
      sys.run_until(t0 + kStepS * static_cast<double>(r + 1));
      const std::size_t kind = static_cast<std::size_t>(r) % names.size();
      Scoped s(spans, names[kind]);
      double ops = 0.0;
      for (int c = 0; c < n_cells; ++c) {
        switch (kind) {
          case 0: sink += sys.recompute_reservation(c); break;
          case 1: sink += sys.scratch_reservation(c); break;
          default:
            sink += policy[kind - 2]->admit(sys, c, 1) ? 1.0 : 0.0;
            break;
        }
        ops += 1.0;
      }
      times.add(std::string(names[kind]) + "_s", s.close(ops), ops);
    }
    // One more advance, so the caches hold terms the copy's events left
    // stale since the last round, then the same checks on them.
    sys.run_until(t0 + kStepS * static_cast<double>(rounds + 1));
    check_cells(".warm");
  }

  // Forced snapshot rebuilds. With a finite T_int a query more than
  // snapshot_tolerance after the last build rebuilds; with T_int = inf only
  // a new quadruplet does, so one is recorded first (on the copy).
  {
    const pabr::sim::Time tq = sys.now();
    Scoped outer(spans, "hoef.rebuild");
    for (int k = 1; k <= kRebuildRounds; ++k) {
      for (int c = 0; c < n_cells; ++c) {
        auto& est = sys.base_station(c).estimator();
        const auto& adj = sys.adjacent(c);
        if (adj.empty()) continue;
        std::vector<int> prevs(adj.begin(), adj.end());
        prevs.push_back(c);
        const double tol = est.config().snapshot_tolerance;
        const bool caching = est.supports_caching();
        const pabr::sim::Time at =
            caching ? tq : tq + static_cast<double>(k) * (tol + 1.0);
        Scoped s(spans, "hoef.rebuild.cell");
        for (const int prev : prevs) {
          if (caching) {
            est.record(pabr::hoef::Quadruplet{at, prev, adj[0], 36.0});
          }
          sink += est.handoff_probability(at, prev, adj[0], 10.0, 30.0);
        }
        const double n = static_cast<double>(prevs.size());
        times.add("hoef.rebuild_s", s.close(n), n);
      }
    }
  }
  g_sink = g_sink + sink;
}

void time_event_queue(std::size_t pending, std::uint64_t seed,
                      LayerTimes& times, SpanLog& spans) {
  pabr::sim::Rng rng(seed);
  pabr::sim::EventQueue q;
  for (std::size_t i = 0; i < pending; ++i) {
    q.schedule(rng.uniform(0.0, 100.0), [] {});
  }
  constexpr std::size_t kOps = 400000;
  std::vector<double> gaps(kOps);
  for (double& g : gaps) g = rng.exponential(50.0);
  Scoped s(spans, "sim.queue");
  for (std::size_t i = 0; i < kOps; ++i) {
    auto [t, cb] = q.pop();
    q.schedule(t + gaps[i], std::move(cb));
  }
  times.add("sim.queue_s", s.close(kOps), kOps);
  times.add("sim.pending_events", static_cast<double>(q.size()), 1);
}

void time_sharded_calendar(std::size_t pending, std::uint64_t seed,
                           LayerTimes& times, SpanLog& spans) {
  namespace sh = pabr::sim::sharded;
  pabr::sim::Rng rng(seed);
  sh::EventCalendar cal;
  std::uint64_t id = 0;
  const auto event_at = [&](double t) {
    sh::PendingEvent e;
    e.time = t;
    e.kind = static_cast<sh::EventKind>(rng.uniform_int(0, 3));
    e.cell = rng.uniform_int(0, 4095);
    e.id = ++id;
    return e;
  };
  for (std::size_t i = 0; i < pending; ++i) {
    cal.push(event_at(rng.uniform(0.0, 100.0)));
  }
  constexpr std::size_t kOps = 400000;
  std::vector<sh::PendingEvent> next(kOps);
  for (auto& e : next) e = event_at(rng.exponential(50.0));
  Scoped s(spans, "sharded.calendar");
  for (std::size_t i = 0; i < kOps; ++i) {
    const sh::PendingEvent e = cal.pop();
    next[i].time += e.time;
    cal.push(next[i]);
  }
  times.add("sharded.calendar_s", s.close(kOps), kOps);
}

void time_rng_draws(std::size_t streams, std::uint64_t seed,
                    LayerTimes& times, SpanLog& spans) {
  const pabr::sim::RngFactory factory(seed);
  std::vector<pabr::sim::Rng> rngs;
  rngs.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) {
    rngs.push_back(factory.make("perfbench-" + std::to_string(i)));
  }
  constexpr std::size_t kDraws = 2000000;
  std::vector<std::uint32_t> which(kDraws);
  pabr::sim::Rng pick(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& w : which) {
    w = static_cast<std::uint32_t>(
        pick.uniform_int(0, static_cast<int>(streams) - 1));
  }
  double sink = 0.0;
  Scoped s(spans, "sim.rng");
  for (std::size_t i = 0; i < kDraws; ++i) {
    sink += rngs[which[i]].exponential(1.0);
  }
  times.add("sim.rng_draw_s", s.close(kDraws), kDraws);
  g_sink = g_sink + sink;
}

}  // namespace perfbench

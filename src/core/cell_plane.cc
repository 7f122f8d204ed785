#include "core/cell_plane.h"

#include <algorithm>
#include <chrono>

#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

CellPlane::CellPlane(Params p)
    : first_(p.first),
      end_(p.end),
      track_overload_(p.track_overload),
      incremental_(p.incremental_reservation),
      route_next_(p.route_next),
      engine_(std::move(p.route_next)),
      accountant_(*p.topology, p.interconnect),
      policy_(admission::make_policy(p.policy, p.static_g, p.ns)) {
  PABR_CHECK(p.capacity_bu > 0.0, "non-positive capacity");
  PABR_CHECK(first_ >= 0 && first_ <= end_ &&
                 end_ <= p.topology->num_cells(),
             "cell range outside the topology");

  const auto span = static_cast<std::size_t>(end_ - first_);
  adjacency_.reserve(span);
  cells_.reserve(span);
  stations_.reserve(span);
  metrics_.resize(span);
  for (geom::CellId c = first_; c < end_; ++c) {
    adjacency_.push_back(&p.topology->neighbors(c));
    cells_.emplace_back(c, p.capacity_bu, p.soft_capacity_margin);
    stations_.emplace_back(c, p.hoef, p.window);
    CellMetrics& m = metrics_[local(c)];
    m.br_mean.update(p.origin, 0.0);
    m.bu_mean.update(p.origin, 0.0);
    if (track_overload_) m.overload.update(p.origin, 0.0);
  }

  if (p.fault.enabled) {
    // Every plane holds its own injector replica: all decisions are pure
    // functions of (fault seed, query args) and timeline memoization is
    // query-order independent, so replicas agree bitwise.
    fault_ = std::make_unique<fault::FaultInjector>(p.fault);
  }

  telemetry_.configure(p.telemetry);
  if (telemetry_.enabled()) {
    tel_ = telemetry::make_sim_counters(telemetry_.registry(), p.capacity_bu);
    engine_.bind_telemetry(tel_.terms_recomputed, tel_.terms_reused);
    accountant_.bind_telemetry(tel_.br_calculations);
    policy_->bind_telemetry(telemetry_.registry());
    for (auto& station : stations_) {
      station.estimator().bind_telemetry(tel_.quads_recorded,
                                         tel_.quads_evicted);
    }
    if (faults_on()) {
      // Registered only under fault injection so fault-free snapshots
      // keep their exact historical key set.
      fault_tel_ = telemetry::make_fault_counters(telemetry_.registry());
      accountant_.bind_fault_telemetry(fault_tel_.retries,
                                       fault_tel_.timeouts);
    }
  }
}

// ---- Eq. (5) / (6) ----------------------------------------------------------

double CellPlane::scratch_contribution(geom::CellId source,
                                       geom::CellId target, sim::Time t,
                                       sim::Duration t_est,
                                       double running) const {
  const auto& estimator = station(source).estimator();
  // Under adaptive QoS, "bandwidth reservation is made on the basis of the
  // minimum QoS of each connection" (§1) — reserve_bandwidth carries the
  // minimum-QoS value in that mode.
  for (const traffic::ConnectionEntry& e : cell(source).connections()) {
    const sim::Duration extant = t - e.view.entered_cell_at;
    double ph;
    if (e.view.route_known) {
      // §7 ITS/GPS extension: the next cell is known, so the estimation
      // function only estimates the hand-off (sojourn) time.
      if (route_next_(source, e.view.direction) != target) continue;
      ph = estimator.any_handoff_probability(t, e.view.prev_cell, extant,
                                             t_est);
    } else {
      ph = estimator.handoff_probability(t, e.view.prev_cell, target, extant,
                                         t_est);
    }
    running += static_cast<double>(e.view.reserve_bandwidth) * ph;
  }
  return running;
}

double CellPlane::contribution(geom::CellId source, geom::CellId target,
                               sim::Time t, sim::Duration t_est,
                               double running) {
  if (!incremental_) {
    return scratch_contribution(source, target, t, t_est, running);
  }
  const bool healing = faults_on() && engine_.is_stale(source, target);
  const double out =
      engine_.accumulate(source, target, cell(source).connections(),
                         station(source).estimator(), t, t_est, running);
  if (healing) {
    // Post-heal re-sync (invariant I9): the rebuilt pair cache must
    // reproduce the from-scratch Eq. (5) contribution bit-for-bit.
    PABR_CHECK(out == scratch_contribution(source, target, t, t_est, running),
               "post-heal pair re-sync diverged from scratch rescan");
    telemetry::bump(fault_tel_.pair_resyncs);
  }
  return out;
}

bool CellPlane::severed(geom::CellId cell, geom::CellId neighbor,
                        sim::Time t) const {
  return faults_on() && !fault_->exchange_outcome(cell, neighbor, t).delivered;
}

double CellPlane::recompute_reservation(geom::CellId cell, sim::Time t) {
  // Eq. (4) is evaluated with the *target* cell's estimation window
  // (T_est of "cell next", §4.1).
  const sim::Duration t_est = station(cell).window().t_est();
  // Under faults each neighbour is consulted through the faulty backhaul
  // and messages are billed per attempt by exchange(); the calculation
  // itself still counts once toward N_calc.
  if (faults_on()) {
    accountant_.count_br_calculation();
  } else {
    accountant_.record_br_calculation(cell);
  }
  const double br = sum_over_neighbors(
      cell,
      [&](geom::CellId i) {
        if (!faults_on() ||
            accountant_.exchange(cell, i, t, *fault_,
                                 backhaul::MessageType::kBandwidthQuery)) {
          return true;
        }
        // The neighbour's hand-in estimate is unavailable: the static
        // floor (a per-neighbour guard-channel stand-in, Hong & Rappaport
        // style) replaces it and the pair's cached terms are distrusted.
        if (incremental_) engine_.mark_stale(i, cell);
        telemetry::bump(fault_tel_.floor_substitutions);
        return false;
      },
      [&](std::size_t, geom::CellId i, double running) {
        return contribution(i, cell, t, t_est, running);
      });
  set_reservation(cell, t, br);
  return br;
}

double CellPlane::scratch_reservation(geom::CellId cell, sim::Time t) const {
  const sim::Duration t_est = station(cell).window().t_est();
  return sum_over_neighbors(
      cell, [&](geom::CellId i) { return !severed(cell, i, t); },
      [&](std::size_t, geom::CellId i, double running) {
        return scratch_contribution(i, cell, t, t_est, running);
      });
}

void CellPlane::set_reservation(geom::CellId cell, sim::Time t, double br) {
  station(cell).set_current_reservation(br);
  if (telemetry_.enabled()) {
    telemetry::bump(tel_.br_recomputes);
    tel_.br_value->add(br);
    telemetry_.emit(t, telemetry::EventKind::kBrRecompute, cell, 0, br);
  }
  metrics(cell).br_mean.update(t, br);
}

// ---- Admission ----------------------------------------------------------------

bool CellPlane::neighbor_reachable(geom::CellId cell, geom::CellId neighbor,
                                   sim::Time t) {
  if (!faults_on()) return true;
  const bool ok = accountant_.exchange(cell, neighbor, t, *fault_,
                                       backhaul::MessageType::kReservationCheck);
  if (!ok) telemetry::bump(fault_tel_.ac_local_fallbacks);
  return ok;
}

bool CellPlane::admit(admission::AdmissionContext& ctx, geom::CellId cell,
                      traffic::Bandwidth bw, sim::Time t) {
  if (faults_on() && !fault_->station_up(cell, t)) {
    telemetry::bump(fault_tel_.station_blocks);
    return false;
  }
  backhaul::AdmissionScope scope(accountant_);
  if (!telemetry_.time_admissions()) return policy_->admit(ctx, cell, bw);
  // Wall-clock sampling of the admission test. steady_clock never touches
  // simulation state, so determinism is unaffected.
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = policy_->admit(ctx, cell, bw);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  tel_.admission_ns->add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  return ok;
}

void CellPlane::count_request(geom::CellId cell, sim::Time t, bool admitted,
                              traffic::ConnectionId id, traffic::Bandwidth bw,
                              bool wired) {
  metrics(cell).pcb.trial(!admitted);
  // `blocked` counts every block; `blocked_wired` the backbone subset.
  if (wired) telemetry::bump(tel_.blocked_wired);
  tally(admitted ? tel_.admitted : tel_.blocked, t,
        admitted ? telemetry::EventKind::kAdmit
        : wired  ? telemetry::EventKind::kWiredBlock
                 : telemetry::EventKind::kBlock,
        cell, id, static_cast<double>(bw));
}

// ---- Hand-ins -------------------------------------------------------------------

traffic::Bandwidth CellPlane::grant(geom::CellId to, traffic::Bandwidth full,
                                    traffic::Bandwidth floor) const {
  const Cell& dst = cell(to);
  if (dst.can_fit(full)) return full;
  if (floor < full && dst.can_fit(floor)) return floor;
  return 0;
}

traffic::Bandwidth CellPlane::gate_hand_in(geom::CellId to, sim::Time t,
                                           traffic::Bandwidth granted) {
  if (granted > 0 && faults_on() && !fault_->station_up(to, t)) {
    telemetry::bump(fault_tel_.station_drops);
    return 0;
  }
  return granted;
}

void CellPlane::observe_hand_in(geom::CellId to, sim::Time t, bool dropped,
                                sim::Duration t_soj_max) {
  reservation::TestWindowController& window = station(to).window();
  const sim::Duration t_est_before = window.t_est();
  window.on_handoff(dropped, t_soj_max);
  metrics(to).phd.trial(dropped);
  if (telemetry_.enabled() && window.t_est() != t_est_before) {
    telemetry_.emit(t, telemetry::EventKind::kTEstStep, to, 0, window.t_est());
  }
}

void CellPlane::count_hand_in(geom::CellId to, sim::Time t,
                              traffic::ConnectionId id, bool dropped,
                              traffic::Bandwidth payload, bool wired) {
  // `handoff_dropped` counts every drop; `_wired` the backbone subset.
  if (wired) telemetry::bump(tel_.handoff_dropped_wired);
  tally(dropped ? tel_.handoff_dropped : tel_.handoff_completed, t,
        !dropped ? telemetry::EventKind::kHandoff
        : wired  ? telemetry::EventKind::kWiredDrop
                 : telemetry::EventKind::kHandoffDrop,
        to, id, static_cast<double>(payload));
}

bool CellPlane::hand_in(geom::CellId to, sim::Time t, traffic::ConnectionId id,
                        traffic::Bandwidth bw, sim::Duration t_soj_max) {
  const bool dropped = gate_hand_in(to, t, grant(to, bw, bw)) == 0;
  observe_hand_in(to, t, dropped, t_soj_max);
  count_hand_in(to, t, id, dropped, bw);
  return !dropped;
}

// ---- Metrics -------------------------------------------------------------------

void CellPlane::record_departure(geom::CellId from, const hoef::Quadruplet& q) {
  station(from).estimator().record(q);
  if (telemetry_.enabled()) tel_.handoff_sojourn->add(q.sojourn);
}

void CellPlane::tally(telemetry::Counter* counter, sim::Time t,
                      telemetry::EventKind kind, geom::CellId cell,
                      traffic::ConnectionId id, double payload) {
  if (!telemetry_.enabled()) return;
  telemetry::bump(counter);
  telemetry_.emit(t, kind, cell, id, payload);
}

CellStatus CellPlane::cell_status(geom::CellId c, sim::Time t) const {
  const CellMetrics& m = metrics(c);
  CellStatus s;
  s.cell = c + 1;  // the paper's 1-based numbering
  s.pcb = m.pcb.value();
  s.phd = m.phd.value();
  s.t_est = station(c).window().t_est();
  s.br = station(c).current_reservation();
  s.bu = cell(c).used();
  s.br_avg = m.br_mean.mean(t);
  s.bu_avg = m.bu_mean.mean(t);
  s.requests = m.pcb.trials();
  s.blocks = m.pcb.hits();
  s.handoffs = m.phd.trials();
  s.drops = m.phd.hits();
  return s;
}

SystemStatus CellPlane::status(sim::Time t) const {
  SystemStatus s;
  const auto n = static_cast<double>(end_ - first_);
  double br_sum = 0.0;
  double bu_sum = 0.0;
  for (const CellMetrics& m : metrics_) {
    s.requests += m.pcb.trials();
    s.blocks += m.pcb.hits();
    s.handoffs += m.phd.trials();
    s.drops += m.phd.hits();
    s.degrades += m.degrades.count();
    s.upgrades += m.upgrades.count();
    s.soft_allocations += m.soft_alloc.count();
    s.soft_fallbacks += m.soft_fallback.count();
    s.overload_frac += m.overload.mean(t) / n;
    br_sum += m.br_mean.mean(t);
    bu_sum += m.bu_mean.mean(t);
  }
  s.pcb = s.requests == 0 ? 0.0
                          : static_cast<double>(s.blocks) /
                                static_cast<double>(s.requests);
  s.phd = s.handoffs == 0 ? 0.0
                          : static_cast<double>(s.drops) /
                                static_cast<double>(s.handoffs);
  s.n_calc = accountant_.n_calc();
  s.br_avg = br_sum / n;
  s.bu_avg = bu_sum / n;
  s.br_calculations = accountant_.total_br_calculations();
  return s;
}

telemetry::MetricsSnapshot CellPlane::telemetry_snapshot(
    std::size_t active, const backhaul::InterconnectModel* interconnect) {
  if (telemetry_.enabled()) {
    auto& reg = telemetry_.registry();
    reg.gauge("signaling.n_calc")->set(accountant_.n_calc());
    if (interconnect != nullptr) {
      reg.gauge("signaling.messages")
          ->set(static_cast<double>(interconnect->total_messages()));
    }
    reg.gauge("connections.active")->set(static_cast<double>(active));
    const telemetry::TraceBuffer& buffer = telemetry_.buffer();
    reg.gauge("trace.emitted")->set(static_cast<double>(buffer.emitted()));
    reg.gauge("trace.rotated_out")
        ->set(static_cast<double>(buffer.rotated_out()));
    reg.gauge("trace.sampled_out")
        ->set(static_cast<double>(buffer.sampled_out()));
  }
  return telemetry_.snapshot();
}

void CellPlane::record_bu(geom::CellId c, sim::Time t) {
  CellMetrics& m = metrics(c);
  m.bu_mean.update(t, cell(c).used());
  if (track_overload_) m.overload.update(t, cell(c).overloaded() ? 1.0 : 0.0);
}

sim::Duration CellPlane::t_soj_max(geom::CellId cell, sim::Time t) const {
  // T_soj,max: "the maximum T_soj derived from the hand-off estimation
  // functions in adjacent cells" (§4.2).
  sim::Duration m = 0.0;
  for (geom::CellId i : neighbors(cell)) {
    m = std::max(m, station(i).estimator().max_sojourn(t));
  }
  return m;
}

void CellPlane::reset(sim::Time t) {
  for (geom::CellId c = first_; c < end_; ++c) {
    CellMetrics& m = metrics(c);
    m.pcb.reset();
    m.phd.reset();
    m.br_mean.reset(t);
    m.br_mean.update(t, station(c).current_reservation());
    m.bu_mean.reset(t);
    m.bu_mean.update(t, cell(c).used());
    m.degrades.reset();
    m.upgrades.reset();
    m.soft_alloc.reset();
    m.soft_fallback.reset();
    if (track_overload_) {
      m.overload.reset(t);
      m.overload.update(t, cell(c).overloaded() ? 1.0 : 0.0);
    }
  }
  accountant_.reset();
  if (telemetry_.enabled()) {
    telemetry_.registry().reset();
    telemetry_.buffer().clear();
  }
}

// ---- Snapshot ------------------------------------------------------------------

void CellPlane::save_cells(snapshot::Writer& w) const {
  {
    auto& e = w.begin_section("cells");
    for (const Cell& cell : cells_) snapshot::put_cell(e, cell);
  }
  {
    auto& e = w.begin_section("stations");
    for (const BaseStation& bs : stations_) snapshot::put_station(e, bs);
  }
  {
    auto& e = w.begin_section("metrics");
    for (const CellMetrics& m : metrics_) snapshot::put_cell_metrics(e, m);
  }
}

void CellPlane::restore_cells(const snapshot::Reader& r) {
  {
    auto d = r.open("cells");
    for (Cell& cell : cells_) snapshot::restore_cell(d, cell);
    d.finish();
  }
  {
    auto d = r.open("stations");
    for (BaseStation& bs : stations_) snapshot::restore_station(d, bs);
    d.finish();
  }
  {
    auto d = r.open("metrics");
    for (CellMetrics& m : metrics_) snapshot::restore_cell_metrics(d, m);
    d.finish();
  }
}

void CellPlane::save_accountant(snapshot::Writer& w) const {
  snapshot::put_accountant(w.begin_section("accountant"), accountant_);
}

void CellPlane::restore_accountant(const snapshot::Reader& r) {
  auto d = r.open("accountant");
  snapshot::restore_accountant(d, accountant_);
  d.finish();
}

void CellPlane::save_control(snapshot::Writer& w) const {
  snapshot::put_engine(w.begin_section("engine"), engine_);
  {
    auto& e = w.begin_section("telemetry");
    e.b(telemetry_.enabled());
    if (telemetry_.enabled()) {
      // Raw registry snapshot: a driver's telemetry_snapshot() would sync
      // gauges and mutate state, which a save must never do.
      snapshot::put_metrics_snapshot(e, telemetry_.registry().snapshot());
      snapshot::put_trace_buffer(e, telemetry_.buffer());
    }
  }
  {
    auto& e = w.begin_section("fault");
    e.b(faults_on());
    if (faults_on()) fault_->save(e);
  }
}

void CellPlane::restore_control(const snapshot::Reader& r) {
  {
    auto d = r.open("engine");
    snapshot::restore_engine(d, engine_);
    d.finish();
  }
  {
    auto d = r.open("telemetry");
    const bool enabled = d.b();
    PABR_CHECK(enabled == telemetry_.enabled(),
               "snapshot/config disagree on telemetry");
    if (enabled) {
      telemetry_.registry().restore(snapshot::get_metrics_snapshot(d));
      snapshot::restore_trace_buffer(d, telemetry_.buffer());
    }
    d.finish();
  }
  {
    auto d = r.open("fault");
    const bool present = d.b();
    PABR_CHECK(present == faults_on(),
               "snapshot/config disagree on fault injection");
    if (present) fault_->load(d);
    d.finish();
  }
}

void CellPlane::save_cell_state(snapshot::Encoder& e, geom::CellId c) const {
  snapshot::put_cell(e, cell(c));
  snapshot::put_station(e, station(c));
  snapshot::put_cell_metrics(e, metrics(c));
}

void CellPlane::restore_cell_state(snapshot::Decoder& d, geom::CellId c) {
  snapshot::restore_cell(d, cell(c));
  snapshot::restore_station(d, station(c));
  snapshot::restore_cell_metrics(d, metrics(c));
}

}  // namespace pabr::core

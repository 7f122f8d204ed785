#include "core/system.h"

#include <algorithm>
#include <cmath>

#include "mobility/linear_motion.h"
#include "util/check.h"
#include "util/log.h"

namespace pabr::core {
namespace {

traffic::WorkloadConfig effective_workload(const SystemConfig& cfg) {
  traffic::WorkloadConfig wl = cfg.workload;
  if (cfg.load_profile.has_value()) {
    // The generator runs at the rate of the profile's peak load; the
    // per-time scale factor brings it down to L_o(t).
    wl.arrival_rate_per_cell = traffic::arrival_rate_for_load(
        cfg.load_profile->max_value(), wl.voice_ratio, wl.mean_lifetime_s);
  }
  return wl;
}

}  // namespace

CellularSystem::CellularSystem(SystemConfig config)
    : config_(std::move(config)),
      rng_factory_(config_.seed),
      road_(config_.num_cells, config_.cell_diameter_km, config_.ring),
      interconnect_(config_.interconnect),
      workload_(road_, effective_workload(config_),
                rng_factory_.make("workload")),
      retry_(config_.retry, rng_factory_.make("retry")),
      route_rng_(rng_factory_.make("route")),
      plane_(plane_params()),
      load_tracker_(config_.num_cells, config_.workload.mean_lifetime_s) {
  PABR_CHECK(config_.time_origin >= 0.0, "negative time origin");
  // Start the event clock at the configured origin so every absolute
  // timestamp (arrivals, estimator periods, metric windows) is measured
  // from it.
  simulator_.restore_clock(config_.time_origin, 0);

  PABR_CHECK(
      config_.known_route_fraction >= 0.0 &&
          config_.known_route_fraction <= 1.0,
      "known_route_fraction out of [0,1]");

  for (geom::CellId c : config_.traced_cells) {
    check_cell_id(c);
    traces_.emplace(c, CellTrace{});
  }

  if (config_.wired.has_value()) {
    backbone_ =
        std::make_unique<wired::Backbone>(config_.num_cells, *config_.wired);
  }

  if (config_.load_profile.has_value()) {
    const double peak = config_.load_profile->max_value();
    PABR_CHECK(peak > 0.0, "load profile peaks at zero");
    const traffic::DailyProfile profile = *config_.load_profile;
    workload_.set_rate_scale(
        [profile, peak](sim::Time t) { return profile.at(t) / peak; }, 1.0);
  }
  if (config_.speed_profile.has_value()) {
    const traffic::DailyProfile profile = *config_.speed_profile;
    const double half = config_.speed_half_range_kmh;
    workload_.set_speed_range([profile, half](sim::Time t) {
      const double s = profile.at(t);
      const double lo = std::max(1.0, s - half);
      return std::pair<double, double>{lo, std::max(lo, s + half)};
    });
  }

  schedule_next_arrival();
}

CellPlane::Params CellularSystem::plane_params() {
  CellPlane::Params p;
  p.topology = &road_;
  p.first = 0;
  p.end = config_.num_cells;
  p.capacity_bu = config_.capacity_bu;
  p.soft_capacity_margin = config_.soft_capacity_margin;
  p.track_overload = true;
  p.origin = config_.time_origin;
  p.policy = config_.policy;
  p.static_g = config_.static_g;
  p.ns = &config_.ns;
  p.window.phd_target = config_.phd_target;
  p.window.t_start = config_.t_start;
  p.window.step_policy = config_.t_est_step;
  p.hoef = config_.hoef;
  p.incremental_reservation = config_.incremental_reservation;
  p.telemetry = config_.telemetry;
  p.fault = config_.fault;
  p.interconnect = &interconnect_;
  p.route_next = [this](geom::CellId cell, int direction) {
    return next_cell_in_direction(cell, direction);
  };
  return p;
}

void CellularSystem::check_cell_id(geom::CellId cell) const {
  PABR_CHECK(cell >= 0 && cell < config_.num_cells, "cell id out of range");
}

void CellularSystem::run_for(sim::Duration duration) {
  PABR_CHECK(duration >= 0.0, "negative run duration");
  simulator_.run_until(simulator_.now() + duration);
}

void CellularSystem::run_until(sim::Time t) {
  PABR_CHECK(t >= simulator_.now(), "run_until into the past");
  simulator_.run_until(t);
}

void CellularSystem::reset_metrics() {
  // Telemetry follows the same warm-up semantics: accumulators restart,
  // learned simulation state persists untouched.
  plane_.reset(simulator_.now());
  wired_blocks_.reset();
  wired_drops_.reset();
  interconnect_.reset();
}

// ---- AdmissionContext -----------------------------------------------------

double CellularSystem::capacity(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.cell(cell).capacity();
}

double CellularSystem::used_bandwidth(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.cell(cell).used();
}

const std::vector<geom::CellId>& CellularSystem::adjacent(
    geom::CellId cell) const {
  return road_.neighbors(cell);
}

double CellularSystem::recompute_reservation(geom::CellId cell) {
  check_cell_id(cell);
  const sim::Time t = simulator_.now();
  const double br = plane_.recompute_reservation(cell, t);
  // §7: mirror the reservation onto the cell's wired access link — the
  // same expected hand-ins will need backbone capacity.
  if (backbone_ != nullptr) backbone_->set_reservation(cell, br);
  if (auto it = traces_.find(cell); it != traces_.end()) {
    it->second.br.add(t, br);
  }
  return br;
}

double CellularSystem::scratch_reservation(geom::CellId cell) {
  check_cell_id(cell);
  return plane_.scratch_reservation(cell, simulator_.now());
}

bool CellularSystem::neighbor_reachable(geom::CellId cell,
                                        geom::CellId neighbor) {
  return plane_.neighbor_reachable(cell, neighbor, simulator_.now());
}

double CellularSystem::current_reservation(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.station(cell).current_reservation();
}

// ---- Arrival path ---------------------------------------------------------

void CellularSystem::schedule_next_arrival() {
  const sim::Time t = workload_.next_arrival_after(simulator_.now());
  if (!std::isfinite(t)) return;  // zero arrival rate
  schedule_arrival_at(t);
}

void CellularSystem::schedule_arrival_at(sim::Time t) {
  next_arrival_ = simulator_.schedule_at(t, [this, t] {
    traffic::ConnectionRequest req = workload_.make_request(t);
    schedule_next_arrival();
    handle_arrival(std::move(req));
    maybe_audit();
  });
}

bool CellularSystem::submit_request(const traffic::ConnectionRequest& req) {
  check_cell_id(req.cell);
  const bool admitted = handle_arrival(req);
  maybe_audit();
  return admitted;
}

bool CellularSystem::handle_arrival(traffic::ConnectionRequest request) {
  load_tracker_.on_request(simulator_.now(),
                           static_cast<double>(request.bandwidth()));
  bool admitted = plane_.admit(*this, request.cell, request.bandwidth(),
                               simulator_.now());
  bool wired_block = false;
  if (admitted && backbone_ != nullptr &&
      !backbone_->can_admit(request.cell, request.bandwidth())) {
    // The air interface admitted but the wired route cannot carry the
    // call (§2): blocked at the backbone.
    admitted = false;
    wired_block = true;
    wired_blocks_.add();
  }
  plane_.count_request(request.cell, simulator_.now(), admitted, request.id,
                       request.bandwidth(), wired_block);
  if (admitted) {
    start_connection(request);
  } else {
    maybe_schedule_retry(std::move(request));
  }
  return admitted;
}

void CellularSystem::maybe_schedule_retry(traffic::ConnectionRequest request) {
  if (!retry_.enabled()) return;
  if (!retry_.should_retry(request.attempt)) return;

  const sim::Duration wait = retry_.wait();
  traffic::ConnectionRequest next = request;
  next.attempt = request.attempt + 1;
  next.requested_at = simulator_.now() + wait;
  // The (unconnected) user keeps moving while waiting to retry.
  next.position_km = request.position_km +
                     static_cast<double>(request.direction) *
                         (request.speed_kmh / 3600.0) * wait;
  const auto pos = road_.canonical_position(next.position_km);
  if (!pos.has_value()) return;  // drove off the open road; gives up
  next.position_km = *pos;
  next.cell = road_.cell_at(*pos);

  plane_.tally(plane_.counters().retries, simulator_.now(),
               telemetry::EventKind::kRetry, next.cell, next.id,
               static_cast<double>(next.attempt));
  schedule_retry_event(next_retry_token_++, simulator_.now() + wait,
                       std::move(next));
}

void CellularSystem::schedule_retry_event(std::uint64_t token, sim::Time when,
                                          traffic::ConnectionRequest next) {
  const sim::EventHandle handle =
      simulator_.schedule_at(when, [this, token] {
        const auto it = pending_retries_.find(token);
        PABR_CHECK(it != pending_retries_.end(), "retry token vanished");
        traffic::ConnectionRequest req = std::move(it->second.request);
        pending_retries_.erase(it);
        handle_arrival(std::move(req));
        maybe_audit();
      });
  pending_retries_.emplace(token, PendingRetry{handle, std::move(next)});
}

void CellularSystem::start_connection(
    const traffic::ConnectionRequest& request) {
  const sim::Time t = simulator_.now();

  MobileRecord rec;
  rec.m.id = request.id;
  rec.m.service = request.service;
  rec.m.cell = request.cell;
  rec.m.prev_cell = request.cell;  // started here (paper's prev = 0)
  rec.m.entered_cell_at = t;
  rec.m.position_km = request.position_km;
  rec.m.position_at = t;
  rec.m.direction = request.direction;
  rec.m.speed_kmh = request.speed_kmh;
  rec.m.admitted_at = t;
  rec.m.expires_at = t + request.lifetime_s;
  rec.m.route_known = config_.known_route_fraction > 0.0 &&
                      route_rng_.bernoulli(config_.known_route_fraction);

  rec.m.current_bandwidth = request.bandwidth();  // new calls get full QoS

  plane_.cell(request.cell)
      .attach(request.id, request.bandwidth(),
              reservation_view(rec.m, request.bandwidth()));
  if (backbone_ != nullptr) {
    backbone_->admit(request.cell, request.id, request.bandwidth());
  }
  plane_.record_bu(request.cell, t);

  const auto [it, inserted] = mobiles_.emplace(request.id, std::move(rec));
  PABR_CHECK(inserted, "duplicate connection id");
  MobileRecord& stored = it->second;

  stored.expiry = simulator_.schedule_at(
      stored.m.expires_at, [this, id = request.id] {
        handle_expiry(id);
        maybe_audit();
      });
  schedule_crossing(stored);
}

// ---- Motion / hand-off path -------------------------------------------------

void CellularSystem::schedule_crossing(MobileRecord& rec) {
  const auto crossing =
      mobility::next_crossing(road_, rec.m, simulator_.now());
  if (!crossing.has_value()) return;  // stationary mobile
  rec.crossing_to = crossing->to;
  rec.crossing_boundary_km = crossing->boundary_km;
  rec.crossing = simulator_.schedule_at(
      crossing->when, [this, id = rec.m.id] {
        handle_crossing(id);
        maybe_audit();
      });

  // CDMA soft hand-off (§7): pre-allocate the second leg when the mobile
  // enters the boundary zone. A single-cell ring wraps onto itself
  // (crossing->to == current cell) — there is no second cell to hold a
  // leg in, and a dual attach of the same id would corrupt the cell.
  if (config_.soft_handoff_zone_km > 0.0 &&
      crossing->to != geom::kNoCell && crossing->to != rec.m.cell) {
    const sim::Duration lead =
        config_.soft_handoff_zone_km / rec.m.speed_km_per_s();
    const sim::Time when =
        std::max(simulator_.now(), crossing->when - lead);
    rec.zone_entry = simulator_.schedule_at(
        when, [this, id = rec.m.id] {
          handle_zone_entry(id);
          maybe_audit();
        });
  }
}

void CellularSystem::handle_zone_entry(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "zone entry for unknown mobile");
  MobileRecord& rec = it->second;
  if (rec.dual()) return;  // already holding a second leg
  const geom::CellId to = rec.crossing_to;
  PABR_CHECK(to != geom::kNoCell, "zone entry without a next cell");

  const sim::Time t = simulator_.now();
  traffic::Bandwidth granted = grant_for_handoff(to, rec.m);
  // A down destination BS cannot pre-allocate a soft leg; fall back to a
  // hard hand-off attempt at the boundary like any other full cell.
  if (granted > 0 && faults_on() && !plane_.fault()->station_up(to, t)) {
    granted = 0;
  }
  if (granted == 0) {
    // No room yet: fall back to a hard hand-off attempt at the boundary.
    plane_.metrics(to).soft_fallback.add();
    plane_.tally(plane_.counters().soft_fallbacks, t,
                 telemetry::EventKind::kSoftFallback, to, id,
                 static_cast<double>(rec.m.bandwidth()));
    return;
  }
  plane_.cell(to).attach(id, granted, reservation_view(rec.m, granted));
  rec.dual_cell = to;
  rec.dual_bw = granted;
  plane_.metrics(to).soft_alloc.add();
  plane_.tally(plane_.counters().soft_allocs, t,
               telemetry::EventKind::kSoftAlloc, to, id,
               static_cast<double>(granted));
  plane_.record_bu(to, t);
}

void CellularSystem::handle_crossing(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "crossing for unknown mobile");
  MobileRecord& rec = it->second;
  const sim::Time t = simulator_.now();

  const geom::CellId from = rec.m.cell;
  const geom::CellId to = rec.crossing_to;
  const sim::Duration sojourn = rec.m.extant_sojourn(t);

  // Pin the mobile to the boundary (avoids floating-point drift).
  rec.m.position_km = rec.crossing_boundary_km;
  rec.m.position_at = t;

  const telemetry::SimCounters& counters = plane_.counters();
  if (to == geom::kNoCell) {
    // Drives off the open road: the connection ends without a hand-off
    // and without a quadruplet (no adjacent cell was entered).
    plane_.tally(counters.off_road, t, telemetry::EventKind::kOffRoad, from,
                 id, static_cast<double>(rec.m.current_bandwidth));
    terminate(rec, /*cancel_expiry=*/true, /*cancel_crossing=*/false);
    mobiles_.erase(it);
    return;
  }

  if (to == from) {
    // Single-cell ring: the boundary wraps straight back into the same
    // cell. Pure motion — no hand-off happened, no bandwidth moved, so
    // neither the estimator, the controller nor the backbone hears about
    // it; just book the next lap.
    schedule_crossing(rec);
    return;
  }

  // The departed cell caches the hand-off event quadruplet (§3.1) — the
  // mobile physically moved regardless of whether the hand-off survives.
  plane_.record_departure(from,
                          hoef::Quadruplet{t, rec.m.prev_cell, to, sojourn});
  interconnect_.record(from, to, backhaul::MessageType::kHandoffSignal);

  // A soft hand-off leg pre-allocated in the destination makes the
  // crossing drop-proof (make-before-break); otherwise grant full QoS if
  // it fits, or the adaptive-QoS minimum (§1), or drop. A down
  // destination station drops it even then.
  const bool via_dual = rec.dual() && rec.dual_cell == to;
  traffic::Bandwidth granted = plane_.gate_hand_in(
      to, t, via_dual ? rec.dual_bw : grant_for_handoff(to, rec.m));
  // §2/§7 wired leg: the new access link must also carry the call, and
  // the shared uplink must absorb any adaptive-QoS resize (the uplink leg
  // persists across the re-route, so only the delta over the currently
  // held bandwidth is new demand). The soft hand-off pre-allocation
  // covers the radio only — the wired re-route happens at the actual
  // crossing.
  bool wired_dropped = false;
  if (granted > 0 && backbone_ != nullptr &&
      !backbone_->can_handoff_into(to, id, granted)) {
    granted = 0;
    wired_dropped = true;
    wired_drops_.add();
  }
  const bool dropped = granted == 0;

  // Fig. 6 controller of the destination cell observes every hand-off.
  plane_.observe_hand_in(to, t, dropped, plane_.t_soj_max(to, t));
  if (auto tr = traces_.find(to); tr != traces_.end()) {
    tr->second.t_est.add(t, plane_.station(to).window().t_est());
    tr->second.phd.add(t, plane_.metrics(to).phd.value());
  }

  if (dropped) {
    plane_.count_hand_in(to, t, id, true, rec.m.bandwidth(), wired_dropped);
    terminate(rec, /*cancel_expiry=*/true, /*cancel_crossing=*/false);
    mobiles_.erase(it);
    return;
  }

  if (granted < rec.m.bandwidth()) {
    plane_.metrics(to).degrades.add();
    plane_.tally(counters.handoff_degraded, t, telemetry::EventKind::kDegrade,
                 to, id, static_cast<double>(granted));
  } else if (rec.m.degraded()) {
    plane_.metrics(to).upgrades.add();
    plane_.tally(counters.handoff_upgraded, t, telemetry::EventKind::kUpgrade,
                 to, id, static_cast<double>(granted));
  }
  plane_.count_hand_in(to, t, id, false, granted);

  plane_.cell(from).detach(id);
  plane_.record_bu(from, t);
  if (backbone_ != nullptr) backbone_->reroute(from, to, id, granted);
  rec.m.current_bandwidth = granted;

  rec.m.prev_cell = from;
  rec.m.cell = to;
  rec.m.entered_cell_at = t;
  if (via_dual) {
    // The second leg becomes the primary; nothing to allocate, but the
    // reservation-visible entry state must track the crossing.
    rec.dual_cell = geom::kNoCell;
    rec.dual_bw = 0;
    plane_.cell(to).set_view(id, reservation_view(rec.m, granted));
  } else {
    plane_.cell(to).attach(id, granted, reservation_view(rec.m, granted));
  }
  plane_.record_bu(to, t);
  schedule_crossing(rec);
}

void CellularSystem::handle_expiry(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "expiry for unknown mobile");
  plane_.tally(plane_.counters().expiries, simulator_.now(),
               telemetry::EventKind::kExpiry, it->second.m.cell, id,
               static_cast<double>(it->second.m.current_bandwidth));
  terminate(it->second, /*cancel_expiry=*/false, /*cancel_crossing=*/true);
  mobiles_.erase(it);
}

void CellularSystem::terminate(MobileRecord& rec, bool cancel_expiry,
                               bool cancel_crossing) {
  if (cancel_expiry) simulator_.cancel(rec.expiry);
  if (cancel_crossing) simulator_.cancel(rec.crossing);
  simulator_.cancel(rec.zone_entry);  // inert if never scheduled/fired
  const sim::Time t = simulator_.now();
  plane_.cell(rec.m.cell).detach(rec.m.id);
  if (backbone_ != nullptr) backbone_->release(rec.m.cell, rec.m.id);
  plane_.record_bu(rec.m.cell, t);
  if (rec.dual()) {
    plane_.cell(rec.dual_cell).detach(rec.m.id);
    plane_.record_bu(rec.dual_cell, t);
    rec.dual_cell = geom::kNoCell;
  }
}

traffic::Bandwidth CellularSystem::grant_for_handoff(
    geom::CellId to, const mobility::Mobile& m) const {
  return plane_.grant(to, m.bandwidth(),
                      config_.adaptive_qos ? min_bandwidth(m) : m.bandwidth());
}

traffic::Bandwidth CellularSystem::min_bandwidth(
    const mobility::Mobile& m) const {
  if (m.service == traffic::ServiceClass::kVideo) {
    return std::min(config_.video_min_bu, m.bandwidth());
  }
  return m.bandwidth();
}

traffic::ReservationView CellularSystem::reservation_view(
    const mobility::Mobile& m, traffic::Bandwidth attached_bw) const {
  traffic::ReservationView v;
  v.reserve_bandwidth =
      config_.adaptive_qos ? min_bandwidth(m) : attached_bw;
  v.prev_cell = m.prev_cell;
  v.entered_cell_at = m.entered_cell_at;
  v.direction = static_cast<std::int8_t>(m.direction);
  v.route_known = m.route_known;
  return v;
}

geom::CellId CellularSystem::next_cell_in_direction(geom::CellId cell,
                                                    int direction) const {
  PABR_CHECK(direction == 1 || direction == -1, "bad direction");
  if (road_.wraps()) {
    const int n = config_.num_cells;
    return ((cell + direction) % n + n) % n;
  }
  const geom::CellId candidate = cell + direction;
  return (candidate < 0 || candidate >= config_.num_cells) ? geom::kNoCell
                                                           : candidate;
}

// ---- Metrics ----------------------------------------------------------------

const CellMetrics& CellularSystem::cell_metrics(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.metrics(cell);
}

CellStatus CellularSystem::cell_status(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.cell_status(cell, simulator_.now());
}

SystemStatus CellularSystem::system_status() const {
  SystemStatus s = plane_.status(simulator_.now());
  s.backhaul_messages = interconnect_.total_messages();
  return s;
}

const CellTrace* CellularSystem::trace(geom::CellId cell) const {
  const auto it = traces_.find(cell);
  return it == traces_.end() ? nullptr : &it->second;
}

telemetry::MetricsSnapshot CellularSystem::telemetry_snapshot() {
  return plane_.telemetry_snapshot(mobiles_.size(), &interconnect_);
}

Cell& CellularSystem::cell(geom::CellId id) {
  check_cell_id(id);
  return plane_.cell(id);
}

const Cell& CellularSystem::cell(geom::CellId id) const {
  check_cell_id(id);
  return plane_.cell(id);
}

BaseStation& CellularSystem::base_station(geom::CellId id) {
  check_cell_id(id);
  return plane_.station(id);
}

const BaseStation& CellularSystem::base_station(geom::CellId id) const {
  check_cell_id(id);
  return plane_.station(id);
}

}  // namespace pabr::core

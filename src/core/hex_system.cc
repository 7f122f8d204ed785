#include "core/hex_system.h"

#include "util/check.h"

namespace pabr::core {

void HexSystemConfig::set_offered_load(double load) {
  PABR_CHECK(load >= 0.0, "negative offered load");
  const double mean_bw = voice_ratio * traffic::kVoiceBandwidth +
                         (1.0 - voice_ratio) * traffic::kVideoBandwidth;
  arrival_rate_per_cell = load / (mean_bw * mean_lifetime_s);
}

HexCellularSystem::HexCellularSystem(HexSystemConfig config)
    : config_(std::move(config)),
      rng_factory_(config_.seed),
      grid_(config_.rows, config_.cols, config_.wrap),
      motion_(grid_, config_.motion),
      plane_(hex_plane_params(config_, grid_, 0, grid_.num_cells())),
      arrival_rng_(rng_factory_.make("hex-arrivals")),
      movement_rng_(rng_factory_.make("hex-movement")) {
  PABR_CHECK(config_.arrival_rate_per_cell >= 0.0, "negative arrival rate");
  PABR_CHECK(
      config_.voice_ratio >= 0.0 && config_.voice_ratio <= 1.0,
      "voice ratio out of [0,1]");
  PABR_CHECK(config_.speed_min_kmh > 0.0 &&
                 config_.speed_max_kmh >= config_.speed_min_kmh,
             "bad speed range");
  schedule_next_arrival();
}

CellPlane::Params hex_plane_params(const HexSystemConfig& config,
                                   const geom::Topology& grid,
                                   geom::CellId first, geom::CellId end) {
  CellPlane::Params p;
  p.topology = &grid;
  p.first = first;
  p.end = end;
  p.capacity_bu = config.capacity_bu;
  p.policy = config.policy;
  p.static_g = config.static_g;
  p.ns = &config.ns;
  p.window.phd_target = config.phd_target;
  p.window.t_start = config.t_start;
  p.hoef = config.hoef;
  p.incremental_reservation = config.incremental_reservation;
  p.telemetry = config.telemetry;
  p.fault = config.fault;
  return p;
}

void HexCellularSystem::check_cell_id(geom::CellId cell) const {
  PABR_CHECK(cell >= 0 && cell < grid_.num_cells(), "cell id out of range");
}

void HexCellularSystem::run_for(sim::Duration duration) {
  PABR_CHECK(duration >= 0.0, "negative run duration");
  simulator_.run_until(simulator_.now() + duration);
}

void HexCellularSystem::run_until(sim::Time t) {
  PABR_CHECK(t >= simulator_.now(), "run_until into the past");
  simulator_.run_until(t);
}

void HexCellularSystem::reset_metrics() { plane_.reset(simulator_.now()); }

// ---- AdmissionContext -------------------------------------------------------

double HexCellularSystem::capacity(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.cell(cell).capacity();
}

double HexCellularSystem::used_bandwidth(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.cell(cell).used();
}

const std::vector<geom::CellId>& HexCellularSystem::adjacent(
    geom::CellId cell) const {
  return grid_.neighbors(cell);
}

double HexCellularSystem::recompute_reservation(geom::CellId cell) {
  check_cell_id(cell);
  return plane_.recompute_reservation(cell, simulator_.now());
}

double HexCellularSystem::scratch_reservation(geom::CellId cell) {
  check_cell_id(cell);
  return plane_.scratch_reservation(cell, simulator_.now());
}

bool HexCellularSystem::neighbor_reachable(geom::CellId cell,
                                           geom::CellId neighbor) {
  return plane_.neighbor_reachable(cell, neighbor, simulator_.now());
}

traffic::ReservationView HexCellularSystem::reservation_view(
    const HexMobile& m) const {
  traffic::ReservationView v;
  v.reserve_bandwidth = m.bandwidth();
  v.prev_cell = m.prev;
  v.entered_cell_at = m.entered_at;
  return v;
}

double HexCellularSystem::current_reservation(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.station(cell).current_reservation();
}

// ---- Workload ----------------------------------------------------------------

void HexCellularSystem::schedule_next_arrival() {
  const double system_rate = config_.arrival_rate_per_cell *
                             static_cast<double>(grid_.num_cells());
  if (system_rate <= 0.0) return;
  schedule_arrival_at(simulator_.now() +
                      arrival_rng_.exponential(1.0 / system_rate));
}

void HexCellularSystem::schedule_arrival_at(sim::Time t) {
  next_arrival_ = simulator_.schedule_at(t, [this] {
    schedule_next_arrival();
    const geom::CellId cell =
        arrival_rng_.uniform_int(0, grid_.num_cells() - 1);
    const auto service = arrival_rng_.bernoulli(config_.voice_ratio)
                             ? traffic::ServiceClass::kVoice
                             : traffic::ServiceClass::kVideo;
    const double speed =
        arrival_rng_.uniform(config_.speed_min_kmh, config_.speed_max_kmh);
    const double lifetime = arrival_rng_.exponential(config_.mean_lifetime_s);
    handle_request(cell, service, speed, lifetime);
    maybe_audit();
  });
}

bool HexCellularSystem::submit_request(geom::CellId cell,
                                       traffic::ServiceClass service,
                                       double speed_kmh,
                                       sim::Duration lifetime_s) {
  check_cell_id(cell);
  const bool admitted = handle_request(cell, service, speed_kmh, lifetime_s);
  maybe_audit();
  return admitted;
}

bool HexCellularSystem::handle_request(geom::CellId cell,
                                       traffic::ServiceClass service,
                                       double speed_kmh,
                                       sim::Duration lifetime_s) {
  const traffic::Bandwidth bw = traffic::bandwidth_of(service);
  const sim::Time t = simulator_.now();
  // The policies' probabilistic tests do not replace the hard FCA check.
  const bool admitted =
      plane_.admit(*this, cell, bw, t) && plane_.cell(cell).can_fit(bw);
  plane_.count_request(cell, t, admitted, next_id_, bw);
  if (!admitted) return false;

  const traffic::ConnectionId id = next_id_++;
  HexMobile m;
  m.id = id;
  m.service = service;
  m.cell = cell;
  m.prev = cell;  // started here (the paper's prev = 0)
  m.entered_at = t;
  m.speed_kmh = speed_kmh;

  plane_.cell(cell).attach(id, bw, reservation_view(m));
  plane_.record_bu(cell, t);

  const auto [it, inserted] = mobiles_.emplace(id, std::move(m));
  PABR_CHECK(inserted, "duplicate connection id");
  it->second.expiry = simulator_.schedule_in(lifetime_s, [this, id] {
    handle_expiry(id);
    maybe_audit();
  });
  schedule_crossing(it->second);
  return true;
}

// ---- Motion / hand-offs --------------------------------------------------------

void HexCellularSystem::schedule_crossing(HexMobile& m) {
  const sim::Duration stay = motion_.sojourn(m.speed_kmh, movement_rng_);
  m.crossing = simulator_.schedule_in(stay, [this, id = m.id] {
    handle_crossing(id);
    maybe_audit();
  });
}

void HexCellularSystem::handle_crossing(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "crossing for unknown mobile");
  HexMobile& m = it->second;
  const sim::Time t = simulator_.now();

  const geom::CellId from = m.cell;
  const geom::CellId to = motion_.next_cell(m.prev, m.cell, movement_rng_);
  PABR_CHECK(grid_.adjacent(from, to), "hex motion left adjacency");

  plane_.record_departure(from,
                          hoef::Quadruplet{t, m.prev, to, t - m.entered_at});

  const bool admitted =
      plane_.hand_in(to, t, id, m.bandwidth(), plane_.t_soj_max(to, t));

  plane_.cell(from).detach(id);
  plane_.record_bu(from, t);
  if (!admitted) {
    simulator_.cancel(m.expiry);
    mobiles_.erase(it);
    return;
  }
  m.prev = from;
  m.cell = to;
  m.entered_at = t;
  plane_.cell(to).attach(id, m.bandwidth(), reservation_view(m));
  plane_.record_bu(to, t);
  schedule_crossing(m);
}

void HexCellularSystem::handle_expiry(traffic::ConnectionId id) {
  const auto it = mobiles_.find(id);
  PABR_CHECK(it != mobiles_.end(), "expiry for unknown mobile");
  plane_.tally(plane_.counters().expiries, simulator_.now(),
               telemetry::EventKind::kExpiry, it->second.cell, id,
               static_cast<double>(it->second.bandwidth()));
  simulator_.cancel(it->second.crossing);
  plane_.cell(it->second.cell).detach(id);
  plane_.record_bu(it->second.cell, simulator_.now());
  mobiles_.erase(it);
}

// ---- Metrics ----------------------------------------------------------------

const CellMetrics& HexCellularSystem::cell_metrics(geom::CellId cell) const {
  check_cell_id(cell);
  return plane_.metrics(cell);
}

SystemStatus HexCellularSystem::system_status() const {
  return plane_.status(simulator_.now());
}

telemetry::MetricsSnapshot HexCellularSystem::telemetry_snapshot() {
  return plane_.telemetry_snapshot(mobiles_.size(), nullptr);
}

Cell& HexCellularSystem::cell(geom::CellId id) {
  check_cell_id(id);
  return plane_.cell(id);
}

BaseStation& HexCellularSystem::base_station(geom::CellId id) {
  check_cell_id(id);
  return plane_.station(id);
}

}  // namespace pabr::core

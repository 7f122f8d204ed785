#include "sim/sharded/shard.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "audit/invariants.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::sim::sharded {

namespace {

std::string stream_name(const char* prefix, geom::CellId cell) {
  return std::string(prefix) + std::to_string(cell);
}

}  // namespace

core::CellPlane::Params Shard::plane_params(const ShardedConfig& config,
                                           const SharedState& shared,
                                           int index) {
  core::CellPlane::Params p = core::hex_plane_params(
      config.system, *shared.grid, shared.partition->first(index),
      shared.partition->last(index));
  p.telemetry.trace = false;
  return p;
}

Shard::Shard(const ShardedConfig& config, SharedState& shared, int index)
    : config_(config),
      shared_(shared),
      index_(index),
      plane_(plane_params(config, shared, index)) {
  const sim::RngFactory factory(config_.system.seed);

  const auto span = static_cast<std::size_t>(end_cell() - first_cell());
  arrival_rng_.reserve(span);
  motion_rng_.reserve(span);
  ordinal_.assign(span, 0);
  out_slots_.resize(span);

  for (geom::CellId c = first_cell(); c < end_cell(); ++c) {
    // One arrival and one mobility stream per CELL (not per shard): the
    // draw sequence each cell sees is then independent of the partition,
    // which is what makes trajectories shard-count invariant.
    arrival_rng_.emplace_back(
        factory.make(stream_name("sharded-arrivals-", c)));
    motion_rng_.emplace_back(factory.make(stream_name("sharded-motion-", c)));

    // P2 write plan: the contrib slot of pair (c -> target) is the
    // position of c inside the target's adjacency list.
    for (const geom::CellId target : shared_.grid->neighbors(c)) {
      const auto& back = shared_.grid->neighbors(target);
      for (std::size_t j = 0; j < back.size(); ++j) {
        if (back[j] == c) {
          out_slots_[local(c)].push_back(
              OutSlot{target, shared_.contrib_offset[static_cast<std::size_t>(
                                  target)] +
                                  j});
          break;
        }
      }
    }
  }

  // Prime each cell's Poisson process. The first draw of the arrival
  // stream is the first interarrival gap, matching the per-tick order
  // (gap first, then the request attributes).
  const double rate = config_.system.arrival_rate_per_cell;
  if (rate > 0.0) {
    for (geom::CellId c = first_cell(); c < end_cell(); ++c) {
      PendingEvent tick;
      tick.time = arrival_rng_[local(c)].exponential(1.0 / rate);
      tick.kind = EventKind::kArrivalTick;
      tick.cell = c;
      calendar_.push(tick);
    }
  }
}

geom::CellId Shard::owned_cell(geom::CellId cell) const {
  PABR_CHECK(plane_.owns(cell), "cell not owned by this shard");
  return cell;
}

// ---- slot protocol ----------------------------------------------------------

void Shard::drain_and_publish(sim::Time slot_start) {
  for (std::size_t s = 0; s < shared_.outbox.size(); ++s) {
    auto& box = shared_.outbox[s][static_cast<std::size_t>(index_)];
    for (const PendingEvent& e : box) calendar_.push(e);
    box.clear();
  }
  for (geom::CellId c = first_cell(); c < end_cell(); ++c) {
    const auto ci = static_cast<std::size_t>(c);
    shared_.frozen_used[ci] = plane_.cell(c).used();
    shared_.frozen_t_est[ci] = plane_.station(c).window().t_est();
    shared_.frozen_max_soj[ci] =
        plane_.station(c).estimator().max_sojourn(slot_start);
  }
}

void Shard::compute_contributions(sim::Time slot_start) {
  for (geom::CellId i = first_cell(); i < end_cell(); ++i) {
    for (const OutSlot& os : out_slots_[local(i)]) {
      const geom::CellId c = os.target;
      if (plane_.severed(c, i, slot_start)) {
        // The target could not consult us this slot; it substitutes the
        // degraded floor (in finalize_reservations, same pure verdict).
        if (config_.system.incremental_reservation) {
          plane_.engine().mark_stale(i, c);
        }
        shared_.contrib[os.slot] = 0.0;
        continue;
      }
      shared_.contrib[os.slot] = plane_.contribution(
          i, c, slot_start, shared_.frozen_t_est[static_cast<std::size_t>(c)],
          0.0);
    }
  }
}

void Shard::finalize_reservations(sim::Time slot_start) {
  for (geom::CellId c = first_cell(); c < end_cell(); ++c) {
    const std::size_t off = shared_.contrib_offset[static_cast<std::size_t>(c)];
    const double br = plane_.sum_over_neighbors(
        c,
        [&](geom::CellId n) {
          if (!plane_.severed(c, n, slot_start)) return true;
          telemetry::bump(plane_.fault_counters().floor_substitutions);
          return false;
        },
        [&](std::size_t j, geom::CellId, double running) {
          return running + shared_.contrib[off + j];
        });
    shared_.frozen_br[static_cast<std::size_t>(c)] = br;
    plane_.set_reservation(c, slot_start, br);
  }
}

void Shard::process_events(sim::Time slot_end) {
  while (!calendar_.empty() && calendar_.top().time < slot_end) {
    const PendingEvent e = calendar_.pop();
    now_ = e.time;
    switch (e.kind) {
      case EventKind::kArrivalTick:
        handle_arrival_tick(e);
        break;
      case EventKind::kDepart:
        handle_depart(e);
        break;
      case EventKind::kArrive:
        handle_arrive(e);
        break;
      case EventKind::kExpiry:
        handle_expiry(e);
        break;
    }
    ++events_;
  }
  now_ = slot_end;
}

void Shard::reset_measurements(sim::Time t) { plane_.reset(t); }

void Shard::audit(sim::Time t) const {
  PABR_CHECK(!plane_.accountant().admission_open(),
             "admission left open across a slot barrier");
  for (geom::CellId c = first_cell(); c < end_cell(); ++c) {
    // I1-I3: sorted table, occupancy equal to the table sum, ceiling.
    audit::audit_cell(plane_.cell(c));
    for (const auto& entry : plane_.cell(c).connections()) {
      // Compare against bandwidth_of(), not the raw constants: under the
      // metamorphic BU-rescaling transform (DESIGN.md §14, M4) every
      // catalogue bandwidth carries the active scale factor.
      PABR_CHECK(
          entry.bandwidth ==
                  traffic::bandwidth_of(traffic::ServiceClass::kVoice) ||
              entry.bandwidth ==
                  traffic::bandwidth_of(traffic::ServiceClass::kVideo),
          "non-catalogue bandwidth attached");
      PABR_CHECK(entry.view.reserve_bandwidth == entry.bandwidth,
                 "reserve bandwidth diverged from attachment");
      PABR_CHECK(entry.view.entered_cell_at <= t,
                 "connection entered its cell in the future");
      PABR_CHECK(entry.view.prev_cell == c ||
                     shared_.grid->adjacent(entry.view.prev_cell, c),
                 "previous cell not adjacent");
    }
    // Control-plane state is finite and within its rails; the frozen
    // mirror matches the live value at every barrier.
    const double br = plane_.station(c).current_reservation();
    PABR_CHECK(std::isfinite(br) && br >= 0.0, "B_r not finite or negative");
    PABR_CHECK(br == shared_.frozen_br[static_cast<std::size_t>(c)],
               "frozen B_r mirror diverged from the base station");
    const double t_est = plane_.station(c).window().t_est();
    PABR_CHECK(std::isfinite(t_est) && t_est > 0.0, "T_est not positive");
  }
}

// ---- AdmissionContext -------------------------------------------------------

double Shard::capacity(geom::CellId cell) const {
  (void)cell;
  return config_.system.capacity_bu;  // uniform FCA capacity
}

double Shard::used_bandwidth(geom::CellId cell) const {
  // Frozen-neighbour semantics: the admission test sees the requesting
  // cell live and every other cell as of the slot boundary, so the
  // decision cannot depend on which shard the neighbours landed in.
  if (cell == admission_self_) return plane_.cell(cell).used();
  return shared_.frozen_used[static_cast<std::size_t>(cell)];
}

const std::vector<geom::CellId>& Shard::adjacent(geom::CellId cell) const {
  return shared_.grid->neighbors(cell);
}

double Shard::recompute_reservation(geom::CellId cell) {
  // Serves the slot-frozen Eq. (6) value; the actual recomputation ran
  // at the barrier. Signalling is still billed per admission-time call,
  // preserving the paper's N_calc semantics (AC1 = 1, AC2 = |A|+1).
  backhaul::SignalingAccountant& accountant = plane_.accountant();
  if (plane_.faults_on()) {
    accountant.count_br_calculation();
    for (const geom::CellId i : shared_.grid->neighbors(cell)) {
      accountant.exchange(cell, i, now_, *plane_.fault(),
                          backhaul::MessageType::kBandwidthQuery);
    }
  } else {
    accountant.record_br_calculation(cell);
  }
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

double Shard::current_reservation(geom::CellId cell) const {
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

double Shard::scratch_reservation(geom::CellId cell) {
  return shared_.frozen_br[static_cast<std::size_t>(cell)];
}

bool Shard::neighbor_reachable(geom::CellId cell, geom::CellId neighbor) {
  return plane_.neighbor_reachable(cell, neighbor, now_);
}

// ---- event handlers ---------------------------------------------------------

void Shard::handle_arrival_tick(const PendingEvent& e) {
  const geom::CellId c = e.cell;
  const auto li = local(c);
  sim::Rng& rng = arrival_rng_[li];
  // Next tick first, then the request attributes — one fixed draw order.
  PendingEvent next;
  next.time =
      e.time + rng.exponential(1.0 / config_.system.arrival_rate_per_cell);
  next.kind = EventKind::kArrivalTick;
  next.cell = c;
  calendar_.push(next);

  const auto service = rng.bernoulli(config_.system.voice_ratio)
                           ? traffic::ServiceClass::kVoice
                           : traffic::ServiceClass::kVideo;
  const double speed = rng.uniform(config_.system.speed_min_kmh,
                                   config_.system.speed_max_kmh);
  const double lifetime =
      rng.exponential(config_.system.mean_lifetime_s);
  handle_arrival(c, service, speed, lifetime);
}

void Shard::handle_arrival(geom::CellId cell, traffic::ServiceClass service,
                           double speed_kmh, sim::Duration lifetime_s) {
  const traffic::Bandwidth bw = traffic::bandwidth_of(service);
  const auto li = local(cell);
  admission_self_ = cell;
  const bool admitted =
      plane_.admit(*this, cell, bw, now_) && plane_.cell(cell).can_fit(bw);
  admission_self_ = geom::kNoCell;
  plane_.count_request(cell, now_, admitted, 0, bw);
  if (!admitted) return;

  MobileSnapshot m;
  m.id = (static_cast<traffic::ConnectionId>(cell) + 1) << 40 |
         ordinal_[li]++;
  m.service = service;
  m.speed_kmh = speed_kmh;
  m.prev = cell;  // started here (the paper's prev = 0)
  m.entered_at = now_;
  m.expires_at = now_ + lifetime_s;

  traffic::ReservationView view;
  view.reserve_bandwidth = bw;
  view.prev_cell = m.prev;
  view.entered_cell_at = m.entered_at;
  plane_.cell(cell).attach(m.id, bw, view);
  plane_.record_bu(cell, now_);
  plan_next_leg(m, cell, now_);
}

void Shard::plan_next_leg(MobileSnapshot m, geom::CellId cell, sim::Time t) {
  sim::Rng& rng = motion_rng_[local(cell)];
  // Both the sojourn and the destination are drawn at cell ENTRY (the
  // serial loop draws the destination at crossing time): the departure
  // is then fully announced one conservative lookahead ahead of time.
  const sim::Duration stay = shared_.motion->sojourn(m.speed_kmh, rng);
  const geom::CellId to = shared_.motion->next_cell(m.prev, cell, rng);
  const sim::Time crossing_at = t + stay;

  if (m.expires_at <= crossing_at) {
    PendingEvent expiry;
    expiry.time = m.expires_at;
    expiry.kind = EventKind::kExpiry;
    expiry.cell = cell;
    expiry.id = m.id;
    expiry.mobile = m;
    calendar_.push(expiry);
    return;
  }

  PendingEvent depart;
  depart.time = crossing_at;
  depart.kind = EventKind::kDepart;
  depart.cell = cell;
  depart.id = m.id;
  depart.mobile = m;
  depart.to = to;
  calendar_.push(depart);

  PendingEvent arrive;
  arrive.time = crossing_at;
  arrive.kind = EventKind::kArrive;
  arrive.cell = to;
  arrive.id = m.id;
  arrive.mobile = m;
  arrive.mobile.prev = cell;
  arrive.mobile.entered_at = crossing_at;
  route(arrive);
}

void Shard::route(PendingEvent e) {
  if (plane_.owns(e.cell)) {
    calendar_.push(e);
    return;
  }
  const int dest = shared_.partition->owner(e.cell);
  shared_.outbox[static_cast<std::size_t>(index_)]
                [static_cast<std::size_t>(dest)]
                    .push_back(e);
}

void Shard::handle_depart(const PendingEvent& e) {
  const geom::CellId c = owned_cell(e.cell);
  plane_.record_departure(c, hoef::Quadruplet{e.time, e.mobile.prev, e.to,
                                               e.time - e.mobile.entered_at});
  plane_.cell(c).detach(e.id);
  plane_.record_bu(c, now_);
}

void Shard::handle_arrive(const PendingEvent& e) {
  const geom::CellId c = owned_cell(e.cell);
  const traffic::Bandwidth bw = e.mobile.bandwidth();
  // The T_soj,max bound comes from the slot-frozen estimator snapshots —
  // live neighbour estimators may belong to other shards mid-slot.
  if (!plane_.hand_in(c, e.time, e.id, bw, frozen_t_soj_max(c))) {
    return;  // the mobile dies with its only pending event
  }

  traffic::ReservationView view;
  view.reserve_bandwidth = bw;
  view.prev_cell = e.mobile.prev;
  view.entered_cell_at = e.time;
  plane_.cell(c).attach(e.id, bw, view);
  plane_.record_bu(c, now_);
  plan_next_leg(e.mobile, c, e.time);
}

void Shard::handle_expiry(const PendingEvent& e) {
  const geom::CellId c = owned_cell(e.cell);
  plane_.tally(plane_.counters().expiries, now_,
               telemetry::EventKind::kExpiry, c, e.id,
               static_cast<double>(e.mobile.bandwidth()));
  plane_.cell(c).detach(e.id);
  plane_.record_bu(c, now_);
}

// ---- helpers ----------------------------------------------------------------

sim::Duration Shard::frozen_t_soj_max(geom::CellId cell) const {
  sim::Duration m = 0.0;
  for (const geom::CellId i : shared_.grid->neighbors(cell)) {
    m = std::max(m, shared_.frozen_max_soj[static_cast<std::size_t>(i)]);
  }
  return m;
}

// ---- snapshot hooks ---------------------------------------------------------

void Shard::save_cell_state(snapshot::Encoder& e, geom::CellId cell) const {
  const auto li = local(cell);
  plane_.save_cell_state(e, cell);
  e.str(arrival_rng_[li].save_state());
  e.str(motion_rng_[li].save_state());
  e.u64(ordinal_[li]);
}

void Shard::restore_cell_state(snapshot::Decoder& d, geom::CellId cell) {
  const auto li = local(cell);
  plane_.restore_cell_state(d, cell);
  arrival_rng_[li].load_state(d.str());
  motion_rng_[li].load_state(d.str());
  ordinal_[li] = d.u64();
}

std::size_t Shard::active_connections() const {
  std::size_t n = 0;
  for (const auto& cell : plane_.cells()) {
    n += static_cast<std::size_t>(cell.connection_count());
  }
  return n;
}

}  // namespace pabr::sim::sharded

// One worker's slice of the sharded hex simulation (DESIGN.md §12).
//
// A Shard owns a contiguous range of cells through a core::CellPlane —
// their radio state, base stations (estimator + T_est controller +
// B_r^curr), metrics, an incremental reservation engine for the (owned
// source -> any target) pairs, a signaling accountant, a fault injector
// replica and telemetry — plus per-cell RNG streams and an event
// calendar.
//
// Cross-cell coupling goes EXCLUSIVELY through the slot-frozen arrays in
// SharedState, written and read under the executor's barrier protocol:
//
//   P1  drain_and_publish      — ingest cross-shard transfers, publish
//                                {used, T_est, max_sojourn} of owned cells
//   P2  compute_contributions  — Eq. (5) boundary-pair sums from owned
//                                sources into every adjacent target
//   P3  finalize_reservations  — Eq. (6) frozen B_r of owned targets
//   P4  process_events         — the slot's arrivals/hand-offs/expiries
//
// Each frozen slot is written by exactly one shard per phase and read
// only in later phases (the barrier provides the happens-before), so the
// arrays need no locks. Because every cell's live state is touched only
// by that cell's own events — processed in composite-key order by its
// owner — and all remote reads see slot-frozen values, per-cell
// trajectories are bitwise-independent of the shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "admission/policy.h"
#include "core/cell_plane.h"
#include "geom/hex_topology.h"
#include "mobility/hex_motion.h"
#include "sim/random.h"
#include "sim/sharded/calendar.h"
#include "sim/sharded/config.h"
#include "sim/sharded/partition.h"
#include "telemetry/telemetry.h"

namespace pabr::snapshot {
class Encoder;
class Decoder;
}  // namespace pabr::snapshot

namespace pabr::sim::sharded {

/// Global slot-frozen state plus the cross-shard mailboxes. Writes and
/// reads are phase-exclusive under the executor's barriers.
struct SharedState {
  const geom::HexTopology* grid = nullptr;
  const mobility::HexMotion* motion = nullptr;
  const Partition* partition = nullptr;

  // Slot-boundary snapshots, indexed by cell; owner-written in P1.
  std::vector<double> frozen_used;
  std::vector<double> frozen_t_est;
  std::vector<double> frozen_max_soj;
  // Frozen Eq. (6) targets, owner-written in P3; serves
  // recompute_reservation / current_reservation for the whole slot.
  std::vector<double> frozen_br;

  // Boundary-pair mirror: contrib[contrib_offset[c] + j] holds Eq. (5)
  // from neighbors(c)[j] into c, written by the neighbour's owner in P2
  // and summed by c's owner in P3 — one float association order for
  // every shard count.
  std::vector<std::size_t> contrib_offset;
  std::vector<double> contrib;

  // outbox[from_shard][to_shard]: cross-shard hand-off announcements,
  // written during P4, drained and cleared by the receiver at P1.
  std::vector<std::vector<std::vector<PendingEvent>>> outbox;
};

class Shard final : public admission::AdmissionContext {
 public:
  Shard(const ShardedConfig& config, SharedState& shared, int index);

  // ---- slot protocol (executor worker loop) -------------------------------
  void drain_and_publish(sim::Time slot_start);
  void compute_contributions(sim::Time slot_start);
  void finalize_reservations(sim::Time slot_start);
  void process_events(sim::Time slot_end);
  /// Slot-aligned warm-up reset (the sharded reset_metrics).
  void reset_measurements(sim::Time t);
  /// Per-barrier invariant sweep over owned cells; throws InvariantError.
  void audit(sim::Time t) const;

  // ---- AdmissionContext ---------------------------------------------------
  double capacity(geom::CellId cell) const override;
  double used_bandwidth(geom::CellId cell) const override;
  const std::vector<geom::CellId>& adjacent(geom::CellId cell) const override;
  double recompute_reservation(geom::CellId cell) override;
  double current_reservation(geom::CellId cell) const override;
  double scratch_reservation(geom::CellId cell) override;
  bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor) override;

  // ---- results ------------------------------------------------------------
  int index() const { return index_; }
  geom::CellId first_cell() const { return plane_.first(); }
  geom::CellId end_cell() const { return plane_.end(); }
  const core::Cell& cell_state(geom::CellId cell) const {
    return plane_.cell(owned_cell(cell));
  }
  core::CellStatus cell_status(geom::CellId cell, sim::Time t) const {
    return plane_.cell_status(owned_cell(cell), t);
  }
  const backhaul::SignalingAccountant& accountant() const {
    return plane_.accountant();
  }
  telemetry::Collector& telemetry() { return plane_.telemetry(); }
  std::uint64_t events_processed() const { return events_; }
  std::size_t active_connections() const;

  // ---- snapshot hooks (executor checkpoint/resume; sharded/snapshot.cc) ---
  /// Serializes / restores one owned cell's complete state: radio table,
  /// base station, metrics, both RNG streams and the id ordinal. The
  /// executor drives these in GLOBAL cell order so the payload is
  /// independent of the partition.
  void save_cell_state(snapshot::Encoder& e, geom::CellId cell) const;
  void restore_cell_state(snapshot::Decoder& d, geom::CellId cell);
  const EventCalendar& calendar() const { return calendar_; }
  /// Drops the constructor's primed arrival ticks ahead of a restore.
  void clear_calendar() { calendar_.clear(); }
  void push_event(const PendingEvent& e) { route(e); }
  backhaul::SignalingAccountant& accountant_mutable() {
    return plane_.accountant();
  }
  /// Overwrites the event tally and clock after a restore (the aggregate
  /// tally lands on shard 0; every other shard restarts from zero).
  void restore_progress(std::uint64_t events, sim::Time now) {
    events_ = events;
    now_ = now;
  }

 private:
  /// `cell`, checked to be owned by this shard.
  geom::CellId owned_cell(geom::CellId cell) const;
  std::size_t local(geom::CellId cell) const {
    return static_cast<std::size_t>(owned_cell(cell) - plane_.first());
  }

  void handle_arrival_tick(const PendingEvent& e);
  void handle_arrival(geom::CellId cell, traffic::ServiceClass service,
                      double speed_kmh, sim::Duration lifetime_s);
  void handle_depart(const PendingEvent& e);
  void handle_arrive(const PendingEvent& e);
  void handle_expiry(const PendingEvent& e);
  /// Draws the next stay (sojourn + destination) from the cell's motion
  /// stream and schedules whichever of crossing/expiry comes first.
  void plan_next_leg(MobileSnapshot m, geom::CellId cell, sim::Time t);
  void route(PendingEvent e);
  /// max over adjacent cells of the slot-frozen estimator max_sojourn —
  /// the T_soj,max bound fed to the Fig. 6 controller.
  sim::Duration frozen_t_soj_max(geom::CellId cell) const;
  /// This shard's plane: the partition's slice, tracing off (per-shard
  /// trace rings are not merge-ordered).
  static core::CellPlane::Params plane_params(const ShardedConfig& config,
                                              const SharedState& shared,
                                              int index);

  ShardedConfig config_;
  SharedState& shared_;
  int index_;
  core::CellPlane plane_;

  std::vector<sim::Rng> arrival_rng_;  ///< per-cell arrival stream
  std::vector<sim::Rng> motion_rng_;   ///< per-cell mobility stream
  std::vector<std::uint64_t> ordinal_; ///< per-cell connection counter

  /// Precomputed P2 write plan: for each owned source cell, the global
  /// contrib slots of its (source -> target) boundary pairs.
  struct OutSlot {
    geom::CellId target = geom::kNoCell;
    std::size_t slot = 0;
  };
  std::vector<std::vector<OutSlot>> out_slots_;

  EventCalendar calendar_;
  sim::Time now_ = 0.0;
  geom::CellId admission_self_ = geom::kNoCell;
  std::uint64_t events_ = 0;
};

}  // namespace pabr::sim::sharded

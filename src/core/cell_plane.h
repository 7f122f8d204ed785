// CellPlane — the per-cell control plane every base station runs (§4),
// whatever the topology: the Eq. (5)/(6) reservation, the Fig. 6 T_est
// controller, the AC1-AC3 admission test and the bookkeeping around
// them. The three drivers (core::CellularSystem on the 1-D road,
// core::HexCellularSystem on the hex grid, sim::sharded::Shard for one
// slice of the sharded grid) each own one plane over a contiguous cell
// range [first, end) and differ only in their event loop, mobility and
// RNG streams — cells differ only in their configured neighbour lists.
//
// The plane owns the cells, base stations and per-cell metrics, the
// incremental reservation engine, the signalling accountant, the
// admission policy, the fault-injector replica and the telemetry
// collector. It is not an AdmissionContext itself: the policy is run
// against the driver's context, which decides how neighbour state is
// read (live in the ring and hex drivers, slot-frozen in the shard).
//
// Floating-point association orders are part of the contract: the live
// Eq. (6) chains one running sum through every neighbour's Eq. (5)
// terms; callers that need per-pair sums pass a running sum of 0.
#pragma once

#include <memory>
#include <vector>

#include "admission/ns_policy.h"
#include "admission/policy.h"
#include "backhaul/network.h"
#include "backhaul/signaling.h"
#include "core/base_station.h"
#include "core/cell.h"
#include "core/metrics.h"
#include "fault/fault.h"
#include "geom/topology.h"
#include "hoef/estimator.h"
#include "reservation/engine.h"
#include "reservation/test_window.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace pabr::snapshot {
class Encoder;
class Decoder;
class Writer;
class Reader;
}  // namespace pabr::snapshot

namespace pabr::core {

class CellPlane {
 public:
  /// Everything a driver decides about its plane at construction.
  struct Params {
    const geom::Topology* topology = nullptr;
    geom::CellId first = 0;
    geom::CellId end = 0;
    double capacity_bu = 100.0;
    double soft_capacity_margin = 0.0;
    /// Keep the soft-capacity overload indicator of every cell (the ring
    /// does; the hex metrics never carry it, nor do their snapshots).
    bool track_overload = false;
    /// Instant the time-weighted metric windows are anchored at.
    sim::Time origin = 0.0;
    admission::PolicyKind policy = admission::PolicyKind::kAc3;
    double static_g = 10.0;
    const admission::NsConfig* ns = nullptr;
    reservation::TestWindowConfig window;
    hoef::EstimatorConfig hoef;
    bool incremental_reservation = true;
    telemetry::TelemetryConfig telemetry;
    fault::FaultConfig fault;
    /// Message accounting of record_br_calculation (may be null).
    backhaul::InterconnectModel* interconnect = nullptr;
    /// Next cell of a route-known mobile (§7); null where none exist.
    reservation::IncrementalEngine::RouteNextFn route_next;
  };

  explicit CellPlane(Params params);

  // ---- Owned cells (global ids; callers check ownership) -----------------
  geom::CellId first() const { return first_; }
  geom::CellId end() const { return end_; }
  bool owns(geom::CellId cell) const { return cell >= first_ && cell < end_; }
  Cell& cell(geom::CellId c) { return cells_[local(c)]; }
  const Cell& cell(geom::CellId c) const { return cells_[local(c)]; }
  BaseStation& station(geom::CellId c) { return stations_[local(c)]; }
  const BaseStation& station(geom::CellId c) const {
    return stations_[local(c)];
  }
  CellMetrics& metrics(geom::CellId c) { return metrics_[local(c)]; }
  const CellMetrics& metrics(geom::CellId c) const {
    return metrics_[local(c)];
  }
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<geom::CellId>& neighbors(geom::CellId c) const {
    return *adjacency_[local(c)];
  }

  backhaul::SignalingAccountant& accountant() { return accountant_; }
  const backhaul::SignalingAccountant& accountant() const {
    return accountant_;
  }
  reservation::IncrementalEngine& engine() { return engine_; }
  telemetry::Collector& telemetry() { return telemetry_; }
  const telemetry::Collector& telemetry() const { return telemetry_; }
  /// Null instruments unless telemetry is on.
  const telemetry::SimCounters& counters() const { return tel_; }
  const telemetry::FaultCounters& fault_counters() const { return fault_tel_; }
  bool faults_on() const { return fault_ != nullptr; }
  /// The fault-injector replica (null without fault injection).
  fault::FaultInjector* fault() const { return fault_.get(); }

  // ---- Eq. (5) / (6) -------------------------------------------------------
  /// Eq. (5) from scratch: the expected hand-in bandwidth from `source`
  /// into `target` within the target's `t_est`, added term by term in
  /// connection-id order onto `running`.
  double scratch_contribution(geom::CellId source, geom::CellId target,
                              sim::Time t, sim::Duration t_est,
                              double running) const;
  /// Eq. (5) served by the incremental engine (the scratch loop when it
  /// is off). A pair coming back from degraded mode is re-synced and
  /// checked bitwise against the scratch loop (invariant I9).
  double contribution(geom::CellId source, geom::CellId target, sim::Time t,
                      sim::Duration t_est, double running);
  /// True when the (cell -> neighbor) exchange fails at `t` under fault
  /// injection. Pure in its arguments; false without faults.
  bool severed(geom::CellId cell, geom::CellId neighbor, sim::Time t) const;
  /// Live Eq. (6) for an owned cell: bills one B_r calculation, consults
  /// every neighbour (through the faulty backhaul when faults are on,
  /// substituting the degraded floor for unreachable ones) and stores
  /// the result via set_reservation.
  double recompute_reservation(geom::CellId cell, sim::Time t);
  /// From-scratch twin of recompute_reservation: same floors and
  /// reachability verdicts, no caches, no accounting, nothing stored.
  double scratch_reservation(geom::CellId cell, sim::Time t) const;
  /// Stores `br` as the cell's B_r^curr, with its metric and telemetry.
  void set_reservation(geom::CellId cell, sim::Time t, double br);
  /// Eq. (6) over an owned cell's neighbours i = neighbors(cell)[j], in
  /// adjacency order: `br = term(j, i, br)` for each neighbour
  /// `reachable(i)` accepts, `br += ` the degraded floor for the others.
  template <class Reachable, class Term>
  double sum_over_neighbors(geom::CellId cell, Reachable&& reachable,
                            Term&& term) const {
    const std::vector<geom::CellId>& adjacent = neighbors(cell);
    double br = 0.0;
    for (std::size_t j = 0; j < adjacent.size(); ++j) {
      if (!reachable(adjacent[j])) {
        br += fault_->config().degraded_floor_bu;
        continue;
      }
      br = term(j, adjacent[j], br);
    }
    return br;
  }

  // ---- Admission -----------------------------------------------------------
  /// Fault-aware backhaul probe of AC2/AC3; always true without faults.
  bool neighbor_reachable(geom::CellId cell, geom::CellId neighbor,
                          sim::Time t);
  /// The admission test of a new call in `cell`. A down serving station
  /// refuses it before any test (no N_calc sample: the metric measures
  /// the algorithm, not the outage); otherwise the policy runs against
  /// `ctx` inside one accounting bracket, timed when telemetry asks.
  bool admit(admission::AdmissionContext& ctx, geom::CellId cell,
             traffic::Bandwidth bw, sim::Time t);
  /// P_CB trial and telemetry of one request's outcome. `wired` marks a
  /// block by the wired backbone.
  void count_request(geom::CellId cell, sim::Time t, bool admitted,
                     traffic::ConnectionId id, traffic::Bandwidth bw,
                     bool wired = false);

  // ---- Hand-ins ------------------------------------------------------------
  /// Bandwidth a hand-in into `to` is granted: `full` if it fits, else
  /// `floor` (adaptive QoS, §1) if that is smaller and fits, else 0.
  traffic::Bandwidth grant(geom::CellId to, traffic::Bandwidth full,
                           traffic::Bandwidth floor) const;
  /// A down destination station has no one to signal to: the hand-in
  /// drops even when radio capacity would carry it. Returns the grant
  /// that survives.
  traffic::Bandwidth gate_hand_in(geom::CellId to, sim::Time t,
                                  traffic::Bandwidth granted);
  /// The destination's Fig. 6 controller and P_HD trial observe the
  /// hand-in; a T_est step is traced.
  void observe_hand_in(geom::CellId to, sim::Time t, bool dropped,
                       sim::Duration t_soj_max);
  /// Telemetry of a hand-in's outcome (`wired` marks a backbone drop).
  void count_hand_in(geom::CellId to, sim::Time t, traffic::ConnectionId id,
                     bool dropped, traffic::Bandwidth payload,
                     bool wired = false);
  /// The whole bookkeeping of a fixed-bandwidth hand-in (no adaptive QoS,
  /// no wired leg): grant, station gate, controller, telemetry. Returns
  /// whether the mobile was admitted into `to`.
  bool hand_in(geom::CellId to, sim::Time t, traffic::ConnectionId id,
               traffic::Bandwidth bw, sim::Duration t_soj_max);

  // ---- Metrics -------------------------------------------------------------
  /// The departed cell caches the hand-off event quadruplet (§3.1).
  void record_departure(geom::CellId from, const hoef::Quadruplet& q);
  /// Bumps `counter` and traces one `kind` record, when telemetry is on.
  void tally(telemetry::Counter* counter, sim::Time t,
             telemetry::EventKind kind, geom::CellId cell,
             traffic::ConnectionId id, double payload);
  /// One owned cell's row of Tables 2-3 at `t`.
  CellStatus cell_status(geom::CellId cell, sim::Time t) const;
  /// The owned cells' tallies and means at `t`, plus N_calc (backhaul
  /// messages are the driver's to add).
  SystemStatus status(sim::Time t) const;
  /// Telemetry snapshot with the polled gauges synced first: N_calc,
  /// signalling messages (when `interconnect` is given), the driver's
  /// `active` connections and trace-buffer health. Empty when telemetry
  /// is disabled.
  telemetry::MetricsSnapshot telemetry_snapshot(
      std::size_t active, const backhaul::InterconnectModel* interconnect);
  void record_bu(geom::CellId cell, sim::Time t);
  /// T_soj,max (§4.2): the largest sojourn the adjacent cells' live
  /// estimation functions know of.
  sim::Duration t_soj_max(geom::CellId cell, sim::Time t) const;
  /// Warm-up reset: accumulators restart, learned state persists.
  void reset(sim::Time t);

  // ---- Invariant audit (src/audit/system_audit.cc) ------------------------
  /// I1-I3 per cell, I6, I5 (incremental == scratch, bitwise; per pair
  /// and skipping severed/stale pairs under faults, I9) and I8.
  void audit(sim::Time t);

  // ---- Snapshot (src/core/cell_plane.cc) -----------------------------------
  /// The "cells", "stations" and "metrics" sections.
  void save_cells(snapshot::Writer& w) const;
  void restore_cells(const snapshot::Reader& r);
  /// The "accountant" section.
  void save_accountant(snapshot::Writer& w) const;
  void restore_accountant(const snapshot::Reader& r);
  /// The "engine", "telemetry" and "fault" sections.
  void save_control(snapshot::Writer& w) const;
  void restore_control(const snapshot::Reader& r);
  /// One cell's radio table, base station and metrics, in that order.
  void save_cell_state(snapshot::Encoder& e, geom::CellId c) const;
  void restore_cell_state(snapshot::Decoder& d, geom::CellId c);

 private:
  std::size_t local(geom::CellId c) const {
    return static_cast<std::size_t>(c - first_);
  }

  geom::CellId first_;
  geom::CellId end_;
  bool track_overload_;
  bool incremental_;
  reservation::IncrementalEngine::RouteNextFn route_next_;
  std::vector<const std::vector<geom::CellId>*> adjacency_;

  std::vector<Cell> cells_;
  std::vector<BaseStation> stations_;
  std::vector<CellMetrics> metrics_;
  reservation::IncrementalEngine engine_;
  backhaul::SignalingAccountant accountant_;
  std::unique_ptr<admission::AdmissionPolicy> policy_;
  std::unique_ptr<fault::FaultInjector> fault_;  // null unless faults on
  telemetry::Collector telemetry_;
  telemetry::SimCounters tel_;
  telemetry::FaultCounters fault_tel_;  ///< bound only when faults are on
};

}  // namespace pabr::core

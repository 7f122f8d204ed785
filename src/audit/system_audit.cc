// The system-level invariant sweeps (catalogue in audit/invariants.h).
//
// Defined as members of the control plane and the two simulators so the
// audit can see private state (the mobile tables, the reservation
// engine) without widening the public API; kept in src/audit/ because
// the sweeps ARE the audit subsystem — the systems only own the
// per-event trigger.
//
// Every check here is trajectory-transparent: the sweep reads occupancy
// and metrics, replays reservation maths through paths that are bitwise
// equal to the production ones (the incremental engine's caches may warm
// up, which by construction never changes a returned value), and draws
// from no RNG stream. Running with audit_every = 1 therefore produces the
// exact same simulation as running with the audit off.
#include <vector>

#include "audit/invariants.h"
#include "core/cell_plane.h"
#include "core/hex_system.h"
#include "core/system.h"
#include "util/check.h"

namespace pabr::core {

void CellPlane::audit(sim::Time t) {
  // I1-I3: per-cell table ordering, B_u conservation, capacity ceiling.
  for (const Cell& c : cells_) audit::audit_cell(c);

  // I6: no admission bracket may leak past an event boundary.
  PABR_CHECK(!accountant_.admission_open(),
             "audit: admission left open at event boundary");

  // I5: the incremental engine must reproduce the from-scratch Eq. (6)
  // rescan bitwise. Accumulating here only warms the engine's caches —
  // never changes a value it will return — so the check is silent.
  //
  // I9 (degraded mode): under fault injection the comparison runs per
  // (neighbour -> cell) pair and skips pairs that are currently
  // unreachable (both replay paths substitute the same static floor, so
  // there are no terms to compare) or stale (the cache was intentionally
  // dropped; it is re-synced and bitwise-audited by the production path
  // at the next successful exchange). Stale pairs must NOT be
  // accumulated here — that would rebuild their caches and silently
  // discharge the production re-sync audit, making the sweep
  // trajectory-visible.
  if (incremental_) {
    for (geom::CellId cell = first_; cell < end_; ++cell) {
      const sim::Duration t_est = station(cell).window().t_est();
      if (faults_on()) {
        for (geom::CellId i : neighbors(cell)) {
          if (severed(cell, i, t) || engine_.is_stale(i, cell)) continue;
          const double incremental = engine_.accumulate(
              i, cell, this->cell(i).connections(), station(i).estimator(),
              t, t_est, 0.0);
          PABR_CHECK(incremental == scratch_contribution(i, cell, t, t_est, 0.0),
                     "audit: incremental pair diverged from scratch rescan");
        }
        continue;
      }
      double incremental = 0.0;
      for (geom::CellId i : neighbors(cell)) {
        incremental = engine_.accumulate(i, cell, this->cell(i).connections(),
                                         station(i).estimator(), t, t_est,
                                         incremental);
      }
      PABR_CHECK(incremental == scratch_reservation(cell, t),
                 "audit: incremental B_r diverged from scratch rescan");
    }
  }

  // I8: estimator event stores.
  for (const BaseStation& s : stations_) s.estimator().audit();
}

void CellularSystem::audit_invariants() {
  // I4: mobile table <-> cell entries (primary + soft hand-off dual leg).
  const std::vector<Cell>& cells = plane_.cells();
  std::vector<int> residents(cells.size(), 0);
  std::vector<double> access_bu(cells.size(), 0.0);
  double uplink_bu = 0.0;
  for (const auto& [id, rec] : mobiles_) {
    PABR_CHECK(rec.m.cell >= 0 &&
                   rec.m.cell < static_cast<geom::CellId>(cells.size()),
               "audit: mobile resides in invalid cell");
    const auto cell = static_cast<std::size_t>(rec.m.cell);
    PABR_CHECK(rec.m.current_bandwidth > 0,
               "audit: mobile with non-positive bandwidth");
    PABR_CHECK(audit::held_bandwidth(cells[cell], id) ==
                   rec.m.current_bandwidth,
               "audit: cell entry bandwidth != mobile's current bandwidth");
    ++residents[cell];
    access_bu[cell] += static_cast<double>(rec.m.current_bandwidth);
    uplink_bu += static_cast<double>(rec.m.current_bandwidth);
    if (rec.dual()) {
      PABR_CHECK(rec.dual_cell >= 0 &&
                     rec.dual_cell < static_cast<geom::CellId>(cells.size()),
                 "audit: dual leg in invalid cell");
      PABR_CHECK(rec.dual_cell != rec.m.cell,
                 "audit: dual leg in the mobile's own cell");
      PABR_CHECK(rec.dual_bw > 0, "audit: dual leg without bandwidth");
      const auto dual = static_cast<std::size_t>(rec.dual_cell);
      PABR_CHECK(audit::held_bandwidth(cells[dual], id) == rec.dual_bw,
                 "audit: dual-leg entry bandwidth != pre-allocated grant");
      ++residents[dual];
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    PABR_CHECK(residents[c] == cells[c].connection_count(),
               "audit: resident count != cell connection count");
  }

  // I7: wired occupancy mirrors the wireless side. Soft hand-off dual
  // legs are radio-only — the wired re-route happens at the crossing —
  // so only primary residency is charged.
  if (backbone_ != nullptr) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const wired::Link& acc = backbone_->access(static_cast<geom::CellId>(c));
      audit::audit_link(acc);
      PABR_CHECK(acc.used() == access_bu[c],
                 "audit: access link != resident wireless occupancy");
    }
    audit::audit_link(backbone_->uplink());
    PABR_CHECK(backbone_->uplink().used() == uplink_bu,
               "audit: MSC uplink != total wireless occupancy");
  }

  // I1-I3, I5, I6, I8, I9.
  plane_.audit(simulator_.now());
}

void HexCellularSystem::audit_invariants() {
  // I4: mobile table <-> cell entries.
  const std::vector<Cell>& cells = plane_.cells();
  std::vector<int> residents(cells.size(), 0);
  for (const auto& [id, m] : mobiles_) {
    PABR_CHECK(m.cell >= 0 && m.cell < grid_.num_cells(),
               "audit: mobile resides in invalid cell");
    PABR_CHECK(audit::held_bandwidth(cells[static_cast<std::size_t>(m.cell)],
                                     id) == m.bandwidth(),
               "audit: cell entry bandwidth != mobile's bandwidth");
    ++residents[static_cast<std::size_t>(m.cell)];
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    PABR_CHECK(residents[c] == cells[c].connection_count(),
               "audit: resident count != cell connection count");
  }

  // I1-I3, I5, I6, I8, I9.
  plane_.audit(simulator_.now());
}

}  // namespace pabr::core

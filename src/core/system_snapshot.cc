// CellularSystem::save/load — full simulator state capture into the
// src/snapshot container (DESIGN.md §13).
//
// Save serializes every state-bearing member plus the pending event
// calendar as (fire time, insertion seq) pairs. Load reconstructs the
// system from the embedded config, then re-schedules the saved events in
// ascending original-seq order: fresh consecutive seqs preserve the
// original relative order of time ties, which is all the event queue's
// comparator looks at, so the resumed trajectory is bitwise identical to
// the uninterrupted run (invariant I10).
#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

void CellularSystem::save(std::ostream& os) {
  snapshot::Writer w(snapshot::SystemKind::kLinear,
                     snapshot::config_digest(config_), simulator_.now(),
                     config_.seed);

  {
    auto& e = w.begin_section("config");
    snapshot::put_config(e, config_);
  }
  snapshot::put_simulator(w, simulator_, events_since_audit_);
  {
    auto& e = w.begin_section("rngs");
    e.str(workload_.rng_state());
    e.u64(workload_.next_id());
    e.str(retry_.rng_state());
    e.str(route_rng_.save_state());
  }
  plane_.save_cells(w);
  {
    auto& e = w.begin_section("traces");
    e.u32(static_cast<std::uint32_t>(traces_.size()));
    // Global cell order, not map order, so the payload is deterministic.
    for (geom::CellId c = 0; c < config_.num_cells; ++c) {
      const auto it = traces_.find(c);
      if (it == traces_.end()) continue;
      e.i64(c);
      snapshot::put_series(e, it->second.t_est);
      snapshot::put_series(e, it->second.br);
      snapshot::put_series(e, it->second.phd);
    }
  }
  {
    auto& e = w.begin_section("mobiles");
    std::vector<const MobileRecord*> recs;
    recs.reserve(mobiles_.size());
    for (const auto& [id, rec] : mobiles_) recs.push_back(&rec);
    std::sort(recs.begin(), recs.end(),
              [](const MobileRecord* a, const MobileRecord* b) {
                return a->m.id < b->m.id;
              });
    e.u32(static_cast<std::uint32_t>(recs.size()));
    for (const MobileRecord* rec : recs) {
      snapshot::put_mobile(e, rec->m);
      e.i64(rec->crossing_to);
      e.f64(rec->crossing_boundary_km);
      e.i64(rec->dual_cell);
      e.i64(rec->dual_bw);
      snapshot::put_pending(e, simulator_.pending(rec->expiry));
      snapshot::put_pending(e, simulator_.pending(rec->crossing));
      snapshot::put_pending(e, simulator_.pending(rec->zone_entry));
    }
  }
  {
    auto& e = w.begin_section("arrival");
    snapshot::put_pending(e, simulator_.pending(next_arrival_));
  }
  {
    auto& e = w.begin_section("retries");
    e.u64(next_retry_token_);
    e.u32(static_cast<std::uint32_t>(pending_retries_.size()));
    for (const auto& [token, pr] : pending_retries_) {  // std::map: sorted
      const auto p = simulator_.pending(pr.handle);
      PABR_CHECK(p.has_value(), "tracked retry has no pending event");
      e.u64(token);
      e.f64(p->when);
      e.u64(p->seq);
      snapshot::put_request(e, pr.request);
    }
  }
  plane_.save_accountant(w);
  {
    auto& e = w.begin_section("interconnect");
    snapshot::put_interconnect(e, interconnect_);
  }
  {
    auto& e = w.begin_section("load");
    const auto& hours = load_tracker_.hourly_bandwidth();
    e.u32(static_cast<std::uint32_t>(hours.size()));
    for (double h : hours) e.f64(h);
  }
  {
    auto& e = w.begin_section("wired");
    e.b(backbone_ != nullptr);
    e.u64(wired_blocks_.count());
    e.u64(wired_drops_.count());
    if (backbone_ != nullptr) {
      snapshot::put_backbone(e, *backbone_, config_.num_cells);
    }
  }
  plane_.save_control(w);

  w.finish(os);
}

std::unique_ptr<CellularSystem> CellularSystem::load(std::istream& is) {
  snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kLinear);

  auto cfg_dec = reader.open("config");
  SystemConfig cfg = snapshot::get_linear_config(cfg_dec);
  cfg_dec.finish();
  PABR_CHECK(snapshot::config_digest(cfg) == reader.header().config_digest,
             "snapshot config digest mismatch");

  auto system = std::make_unique<CellularSystem>(std::move(cfg));
  system->restore_from(reader);
  return system;
}

void CellularSystem::restore_from(const snapshot::Reader& reader) {
  // Drop the constructor's bootstrap arrival event; every pending event
  // comes from the snapshot. The constructor's draw from the workload
  // stream is erased below when the RNG states are restored.
  snapshot::EventReplay events(reader, simulator_, events_since_audit_);
  next_arrival_ = sim::EventHandle{};
  PABR_CHECK(mobiles_.empty() && pending_retries_.empty(),
             "restore_from on a used system");
  {
    auto d = reader.open("rngs");
    const std::string workload_state = d.str();
    const traffic::ConnectionId next_id = d.u64();
    workload_.restore(workload_state, next_id);
    retry_.restore_rng(d.str());
    route_rng_.load_state(d.str());
    d.finish();
  }
  plane_.restore_cells(reader);
  {
    auto d = reader.open("traces");
    const std::uint32_t n = d.u32();
    PABR_CHECK(n == traces_.size(), "snapshot trace-cell set mismatch");
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto cell = static_cast<geom::CellId>(d.i64());
      const auto it = traces_.find(cell);
      PABR_CHECK(it != traces_.end(), "snapshot traces an untraced cell");
      snapshot::restore_series(d, it->second.t_est);
      snapshot::restore_series(d, it->second.br);
      snapshot::restore_series(d, it->second.phd);
    }
    d.finish();
  }
  {
    auto d = reader.open("mobiles");
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      MobileRecord rec;
      rec.m = snapshot::get_mobile(d);
      rec.crossing_to = static_cast<geom::CellId>(d.i64());
      rec.crossing_boundary_km = d.f64();
      rec.dual_cell = static_cast<geom::CellId>(d.i64());
      rec.dual_bw = static_cast<traffic::Bandwidth>(d.i64());
      const traffic::ConnectionId id = rec.m.id;
      auto [it, inserted] = mobiles_.emplace(id, std::move(rec));
      PABR_CHECK(inserted, "duplicate mobile id in snapshot");
      MobileRecord* r = &it->second;
      events.add(snapshot::get_pending(d), [this, r, id](sim::Time when) {
        r->expiry = simulator_.schedule_at(when, [this, id] {
          handle_expiry(id);
          maybe_audit();
        });
      });
      events.add(snapshot::get_pending(d), [this, r, id](sim::Time when) {
        r->crossing = simulator_.schedule_at(when, [this, id] {
          handle_crossing(id);
          maybe_audit();
        });
      });
      events.add(snapshot::get_pending(d), [this, r, id](sim::Time when) {
        r->zone_entry = simulator_.schedule_at(when, [this, id] {
          handle_zone_entry(id);
          maybe_audit();
        });
      });
    }
    d.finish();
  }
  {
    auto d = reader.open("arrival");
    events.add(snapshot::get_pending(d),
               [this](sim::Time when) { schedule_arrival_at(when); });
    d.finish();
  }
  {
    auto d = reader.open("retries");
    next_retry_token_ = d.u64();
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t token = d.u64();
      sim::EventQueue::PendingInfo p;
      p.when = d.f64();
      p.seq = d.u64();
      events.add(p, [this, token, req = snapshot::get_request(d)](
                        sim::Time when) mutable {
        schedule_retry_event(token, when, std::move(req));
      });
    }
    d.finish();
  }
  plane_.restore_accountant(reader);
  {
    auto d = reader.open("interconnect");
    snapshot::restore_interconnect(d, interconnect_);
    d.finish();
  }
  {
    auto d = reader.open("load");
    const std::uint32_t n = d.u32();
    std::vector<double> hours(n);
    for (std::uint32_t i = 0; i < n; ++i) hours[i] = d.f64();
    load_tracker_.restore(std::move(hours));
    d.finish();
  }
  {
    auto d = reader.open("wired");
    const bool has_backbone = d.b();
    PABR_CHECK(has_backbone == (backbone_ != nullptr),
               "snapshot/config disagree on wired backbone");
    wired_blocks_.restore(d.u64());
    wired_drops_.restore(d.u64());
    if (backbone_ != nullptr) {
      snapshot::restore_backbone(d, *backbone_, config_.num_cells);
    }
    d.finish();
  }
  plane_.restore_control(reader);
  events.finish();
}

}  // namespace pabr::core

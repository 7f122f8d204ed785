// HexCellularSystem::save/load — the 2-D simulator's snapshot pair (see
// core/system_snapshot.cc for the shared design; same section protocol,
// same re-schedule-by-original-seq restore rule, invariant I10).
#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/hex_system.h"
#include "snapshot/format.h"
#include "snapshot/parts.h"
#include "util/check.h"

namespace pabr::core {

void HexCellularSystem::save(std::ostream& os) {
  snapshot::Writer w(snapshot::SystemKind::kHex,
                     snapshot::config_digest(config_), simulator_.now(),
                     config_.seed);

  {
    auto& e = w.begin_section("config");
    snapshot::put_config(e, config_);
  }
  snapshot::put_simulator(w, simulator_, events_since_audit_);
  {
    auto& e = w.begin_section("rngs");
    e.str(arrival_rng_.save_state());
    e.str(movement_rng_.save_state());
  }
  plane_.save_cells(w);
  {
    auto& e = w.begin_section("mobiles");
    std::vector<const HexMobile*> recs;
    recs.reserve(mobiles_.size());
    for (const auto& [id, m] : mobiles_) recs.push_back(&m);
    std::sort(recs.begin(), recs.end(),
              [](const HexMobile* a, const HexMobile* b) {
                return a->id < b->id;
              });
    e.u64(next_id_);
    e.u32(static_cast<std::uint32_t>(recs.size()));
    for (const HexMobile* m : recs) {
      e.u64(m->id);
      e.u32(static_cast<std::uint32_t>(m->service));
      e.i64(m->cell);
      e.i64(m->prev);
      e.f64(m->entered_at);
      e.f64(m->speed_kmh);
      snapshot::put_pending(e, simulator_.pending(m->expiry));
      snapshot::put_pending(e, simulator_.pending(m->crossing));
    }
  }
  {
    auto& e = w.begin_section("arrival");
    snapshot::put_pending(e, simulator_.pending(next_arrival_));
  }
  plane_.save_accountant(w);
  plane_.save_control(w);

  w.finish(os);
}

std::unique_ptr<HexCellularSystem> HexCellularSystem::load(std::istream& is) {
  snapshot::Reader reader(is);
  reader.require_kind(snapshot::SystemKind::kHex);

  auto cfg_dec = reader.open("config");
  HexSystemConfig cfg = snapshot::get_hex_config(cfg_dec);
  cfg_dec.finish();
  PABR_CHECK(snapshot::config_digest(cfg) == reader.header().config_digest,
             "snapshot config digest mismatch");

  auto system = std::make_unique<HexCellularSystem>(std::move(cfg));
  system->restore_from(reader);
  return system;
}

void HexCellularSystem::restore_from(const snapshot::Reader& reader) {
  snapshot::EventReplay events(reader, simulator_, events_since_audit_);
  next_arrival_ = sim::EventHandle{};
  PABR_CHECK(mobiles_.empty(), "restore_from on a used system");
  {
    auto d = reader.open("rngs");
    arrival_rng_.load_state(d.str());
    movement_rng_.load_state(d.str());
    d.finish();
  }
  plane_.restore_cells(reader);
  {
    auto d = reader.open("mobiles");
    next_id_ = d.u64();
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      HexMobile m;
      m.id = d.u64();
      m.service = static_cast<traffic::ServiceClass>(d.u32());
      m.cell = static_cast<geom::CellId>(d.i64());
      m.prev = static_cast<geom::CellId>(d.i64());
      m.entered_at = d.f64();
      m.speed_kmh = d.f64();
      const traffic::ConnectionId id = m.id;
      auto [it, inserted] = mobiles_.emplace(id, std::move(m));
      PABR_CHECK(inserted, "duplicate mobile id in snapshot");
      HexMobile* rec = &it->second;
      events.add(snapshot::get_pending(d), [this, rec, id](sim::Time when) {
        rec->expiry = simulator_.schedule_at(when, [this, id] {
          handle_expiry(id);
          maybe_audit();
        });
      });
      events.add(snapshot::get_pending(d), [this, rec, id](sim::Time when) {
        rec->crossing = simulator_.schedule_at(when, [this, id] {
          handle_crossing(id);
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
  plane_.restore_accountant(reader);
  plane_.restore_control(reader);
  events.finish();
}

}  // namespace pabr::core

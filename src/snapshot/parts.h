// Shared snapshot serializers for the pieces both simulators are built
// from (DESIGN.md §13): full configs (and their FNV-1a digests, stamped
// into the container header), statistics accumulators, cell tables, base
// stations, telemetry, the signalling accountant, the wired backbone and
// the incremental reservation engine.
//
// Conventions: integers that can hold geom::kNoCell (-1) travel as i64;
// enums as u32; optionals as a presence flag followed by the payload.
// Every get_/restore_ function consumes exactly what its put_ counterpart
// wrote — Decoder::finish() in the callers enforces it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "backhaul/network.h"
#include "backhaul/signaling.h"
#include "core/base_station.h"
#include "core/cell.h"
#include "core/hex_system.h"
#include "core/metrics.h"
#include "core/system.h"
#include "mobility/mobile.h"
#include "reservation/engine.h"
#include "sim/series.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "snapshot/format.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "traffic/connection.h"
#include "wired/backbone.h"

namespace pabr::snapshot {

// ---- Configs -------------------------------------------------------------
// The serialized config is both the "config" section payload and the
// input of the header's config digest, so a resume can refuse a snapshot
// taken under different parameters before touching any state.
void put_config(Encoder& e, const core::SystemConfig& c);
core::SystemConfig get_linear_config(Decoder& d);
std::uint64_t config_digest(const core::SystemConfig& c);

void put_config(Encoder& e, const core::HexSystemConfig& c);
core::HexSystemConfig get_hex_config(Decoder& d);
std::uint64_t config_digest(const core::HexSystemConfig& c);

// ---- Event calendar ------------------------------------------------------
/// A pending-event slot: presence flag, fire time, insertion seq.
void put_pending(Encoder& e,
                 const std::optional<sim::EventQueue::PendingInfo>& p);
std::optional<sim::EventQueue::PendingInfo> get_pending(Decoder& d);

/// The "simulator" section: clock, executed-event tally, queue counters
/// and the driver's per-event audit counter.
void put_simulator(Writer& w, const sim::Simulator& s, int events_since_audit);

/// Re-creates a saved event calendar on a freshly constructed simulator.
/// The constructor reads the "simulator" section and drops the events the
/// driver's constructor booked; the driver then adds every saved pending
/// event, and finish() books them in ascending original-seq order — fresh
/// consecutive seqs keep the original relative order of time ties, which
/// is all the calendar compares — before restoring the counters and the
/// clock (invariant I10).
class EventReplay {
 public:
  EventReplay(const Reader& r, sim::Simulator& s, int& events_since_audit);

  /// Books `schedule(when)` for a saved slot that holds an event.
  void add(const std::optional<sim::EventQueue::PendingInfo>& p,
           std::function<void(sim::Time)> schedule);
  void finish();

 private:
  struct Saved {
    std::uint64_t seq;
    sim::Time when;
    std::function<void(sim::Time)> schedule;
  };
  sim::Simulator& sim_;
  sim::Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Saved> events_;
};

// ---- Statistics accumulators --------------------------------------------
void put_twm(Encoder& e, const sim::TimeWeightedMean& m);
void restore_twm(Decoder& d, sim::TimeWeightedMean& m);

void put_cell_metrics(Encoder& e, const core::CellMetrics& m);
void restore_cell_metrics(Decoder& d, core::CellMetrics& m);

void put_series(Encoder& e, const sim::Series& s);
void restore_series(Decoder& d, sim::Series& s);

// ---- Radio / control-plane state ----------------------------------------
/// The id-sorted connection table with each entry's reservation view;
/// restore_cell re-attaches in saved order onto a freshly built cell, so
/// occupancy is rebuilt by the production attach path (integral BUs make
/// the resulting used() float exact).
void put_cell(Encoder& e, const core::Cell& cell);
void restore_cell(Decoder& d, core::Cell& cell);

void put_station(Encoder& e, const core::BaseStation& bs);
void restore_station(Decoder& d, core::BaseStation& bs);

// ---- Traffic entities ----------------------------------------------------
void put_request(Encoder& e, const traffic::ConnectionRequest& r);
traffic::ConnectionRequest get_request(Decoder& d);

void put_mobile(Encoder& e, const mobility::Mobile& m);
mobility::Mobile get_mobile(Decoder& d);

// ---- Backhaul ------------------------------------------------------------
void put_accountant(Encoder& e, const backhaul::SignalingAccountant& a);
void restore_accountant(Decoder& d, backhaul::SignalingAccountant& a);

void put_interconnect(Encoder& e, const backhaul::InterconnectModel& ic);
void restore_interconnect(Decoder& d, backhaul::InterconnectModel& ic);

/// Per-access-link attachment tables + wired reservations; the uplink is
/// rebuilt implicitly because restore replays Backbone::admit per leg.
void put_backbone(Encoder& e, const wired::Backbone& b, int num_cells);
void restore_backbone(Decoder& d, wired::Backbone& b, int num_cells);

// ---- Reservation engine --------------------------------------------------
void put_engine(Encoder& e, const reservation::IncrementalEngine& eng);
void restore_engine(Decoder& d, reservation::IncrementalEngine& eng);

// ---- Telemetry -----------------------------------------------------------
void put_metrics_snapshot(Encoder& e, const telemetry::MetricsSnapshot& s);
telemetry::MetricsSnapshot get_metrics_snapshot(Decoder& d);

void put_trace_buffer(Encoder& e, const telemetry::TraceBuffer& b);
void restore_trace_buffer(Decoder& d, telemetry::TraceBuffer& b);

}  // namespace pabr::snapshot

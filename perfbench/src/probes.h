// Per-layer timings taken from outside the program: each wraps calls to a
// layer's public functions and feeds LayerTimes. Probes that need live
// model state run on a copy of the system made through save()/load(), so
// the timed trajectory is never disturbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.h"
#include "core/system.h"

namespace perfbench {

struct CopyProbe {
  LayerTimes& times;
  Report& report;
  std::string tag;  ///< prefix of the check names, e.g. "AC3.pause2"
};

/// Copies `live` through save()/load() (snapshot.* figures), checks the
/// copy (incremental B_r == scratch bitwise, 0 <= B_u <= C in every cell)
/// right after the load and again once its own events have refilled the
/// reservation pair caches, and times on the copy: HOEF p_h probes and
/// forced snapshot rebuilds, recompute_reservation / scratch_reservation,
/// and the AC1-AC3 admit() tests. The copy is discarded.
void probe_copy(pabr::core::CellularSystem& live, CopyProbe& probe);

/// schedule + pop on a sim::EventQueue holding `pending` events.
void time_event_queue(std::size_t pending, std::uint64_t seed,
                      LayerTimes& times, SpanLog& spans);

/// push + pop on a sim::sharded::EventCalendar holding `pending` events.
void time_sharded_calendar(std::size_t pending, std::uint64_t seed,
                           LayerTimes& times, SpanLog& spans);

/// exponential() draws spread at random over `streams` sim::Rng streams.
void time_rng_draws(std::size_t streams, std::uint64_t seed,
                    LayerTimes& times, SpanLog& spans);

}  // namespace perfbench

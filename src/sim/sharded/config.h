// Configuration of the sharded hex-grid executor (DESIGN.md §12).
#pragma once

#include <string>

#include "core/hex_system.h"
#include "sim/time.h"

namespace pabr::sim::sharded {

struct ShardedConfig {
  /// The simulated system. Each shard runs the hex system's control
  /// plane (core::CellPlane over its slice) but NOT its event loop; see
  /// DESIGN.md §12 for the documented semantic divergences (frozen
  /// neighbour state, per-cell RNG streams, barrier-time B_r).
  core::HexSystemConfig system;

  /// Worker/shard count. Results are bitwise-identical for ANY value;
  /// 1 <= shards <= rows*cols.
  int shards = 1;

  /// Simulated horizon (seconds) and measurement warm-up. Metrics are
  /// reset at the first slot boundary at or after `warmup_s` (slot-
  /// aligned so every shard count resets at the same instant).
  sim::Duration duration_s = 3600.0;
  sim::Duration warmup_s = 0.0;

  /// Conservative-lookahead override. 0 = derive the slot length from
  /// the mobility model: 3600 * cell_diameter / speed_max * (1 - jitter),
  /// the minimum possible cell traversal time, which guarantees every
  /// cross-shard hand-off is announced at least one barrier before it
  /// fires. A positive override must not exceed that bound.
  sim::Duration slot_override_s = 0.0;

  /// Run the per-shard invariant audit at every slot barrier (the
  /// sharded counterpart of HexSystemConfig::audit_every; that field is
  /// ignored here because event-count cadences are not shard-invariant).
  bool audit_at_barriers = false;

  /// Checkpoint cadence in simulated seconds (0 = never). Snapped to the
  /// slot grid: a snapshot is written at every slot-start barrier whose
  /// index is a multiple of ceil(checkpoint_every_s / slot). The state is
  /// serialized in global cell order at a barrier, so any shard count
  /// produces the identical file; checkpoint_path is overwritten each
  /// time (DESIGN.md §13).
  sim::Duration checkpoint_every_s = 0.0;
  std::string checkpoint_path;

  /// Path of a sharded snapshot to resume from ("" = fresh run). The
  /// snapshot's config digest and slot grid must match this config; the
  /// shard count is free to differ.
  std::string resume_from;
};

}  // namespace pabr::sim::sharded

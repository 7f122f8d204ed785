#include "sim/sharded/executor.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <thread>

#include "util/check.h"
#include "util/digest.h"

namespace pabr::sim::sharded {

namespace {

double ratio_of(std::uint64_t hits, std::uint64_t trials) {
  return trials == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace

ShardedExecutor::ShardedExecutor(ShardedConfig config)
    : config_(std::move(config)),
      grid_(config_.system.rows, config_.system.cols, config_.system.wrap),
      motion_(grid_, config_.system.motion),
      partition_(grid_.num_cells(), config_.shards) {
  PABR_CHECK(config_.system.capacity_bu > 0.0, "non-positive capacity");
  PABR_CHECK(config_.system.arrival_rate_per_cell >= 0.0,
             "negative arrival rate");
  PABR_CHECK(config_.system.voice_ratio >= 0.0 &&
                 config_.system.voice_ratio <= 1.0,
             "voice ratio out of [0,1]");
  PABR_CHECK(config_.system.speed_min_kmh > 0.0 &&
                 config_.system.speed_max_kmh >= config_.system.speed_min_kmh,
             "bad speed range");
  PABR_CHECK(config_.duration_s >= 0.0, "negative run duration");
  PABR_CHECK(config_.warmup_s >= 0.0 && config_.warmup_s <= config_.duration_s,
             "warm-up outside the run horizon");

  // Conservative lookahead: the fastest possible cell traversal.
  const auto& mc = config_.system.motion;
  const double min_traversal = 3600.0 * mc.cell_diameter_km /
                               config_.system.speed_max_kmh *
                               (1.0 - mc.jitter);
  PABR_CHECK(min_traversal > 0.0, "degenerate mobility: zero lookahead");
  slot_ = min_traversal;
  if (config_.slot_override_s > 0.0) {
    PABR_CHECK(config_.slot_override_s <= min_traversal,
               "slot override exceeds the conservative lookahead");
    slot_ = config_.slot_override_s;
  }

  num_slots_ = static_cast<std::uint64_t>(
      std::ceil(config_.duration_s / slot_));
  PABR_CHECK(num_slots_ == 0 ||
                 slot_ * static_cast<double>(num_slots_ - 1) <
                     config_.duration_s,
             "slot grid overshoots the horizon");
  if (config_.warmup_s > 0.0) {
    // Slot-aligned so every shard count resets at the same instant.
    reset_slot_ = static_cast<std::uint64_t>(
        std::ceil(config_.warmup_s / slot_));
    PABR_CHECK(reset_slot_ >= 1 && reset_slot_ < num_slots_,
               "warm-up leaves no measurement slots");
  }

  if (config_.checkpoint_every_s > 0.0) {
    PABR_CHECK(!config_.checkpoint_path.empty(),
               "checkpoint cadence set without a checkpoint path");
    checkpoint_period_ = static_cast<std::uint64_t>(
        std::ceil(config_.checkpoint_every_s / slot_));
  }

  const auto n = static_cast<std::size_t>(grid_.num_cells());
  shared_.grid = &grid_;
  shared_.motion = &motion_;
  shared_.partition = &partition_;
  shared_.frozen_used.assign(n, 0.0);
  shared_.frozen_t_est.assign(n, 0.0);
  shared_.frozen_max_soj.assign(n, 0.0);
  shared_.frozen_br.assign(n, 0.0);
  shared_.contrib_offset.reserve(n);
  std::size_t total_pairs = 0;
  for (geom::CellId c = 0; c < grid_.num_cells(); ++c) {
    shared_.contrib_offset.push_back(total_pairs);
    total_pairs += grid_.neighbors(c).size();
  }
  shared_.contrib.assign(total_pairs, 0.0);
  const auto s = static_cast<std::size_t>(partition_.shards());
  shared_.outbox.assign(s, std::vector<std::vector<PendingEvent>>(s));
}

ShardedResult ShardedExecutor::run() {
  const int num_shards = partition_.shards();
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_unique<Shard>(config_, shared_, s));
  }

  std::uint64_t start_slot = 0;
  if (!config_.resume_from.empty()) {
    std::ifstream is(config_.resume_from, std::ios::binary);
    PABR_CHECK(is.good(), "cannot open the resume snapshot");
    start_slot = restore_checkpoint(is, shards);
  }

  std::barrier sync(num_shards);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_shards));
  std::atomic<bool> abort{false};

  const auto worker = [&](int s) {
    Shard& shard = *shards[static_cast<std::size_t>(s)];
    auto& error = errors[static_cast<std::size_t>(s)];
    // Each phase body is guarded so a throwing shard still reaches every
    // barrier of its slot; all workers then observe `abort` at the SAME
    // barrier (the flag is set before the thrower arrives, and the
    // barrier orders that store before the others' loads) and break
    // together.
    const auto guarded = [&](auto&& phase) {
      if (!abort.load(std::memory_order_relaxed)) {
        try {
          phase();
        } catch (...) {
          error = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      }
      sync.arrive_and_wait();
      return !abort.load(std::memory_order_relaxed);
    };
    for (std::uint64_t k = start_slot; k < num_slots_; ++k) {
      const sim::Time t0 = slot_ * static_cast<double>(k);
      const sim::Time t1 =
          std::min(slot_ * static_cast<double>(k + 1), config_.duration_s);
      // Checkpoint barrier: every shard finished the previous slot's P4
      // (the trailing barrier provides the happens-before), so shard 0
      // can serialize the whole quiesced state before anyone moves on.
      if (checkpoint_period_ != 0 && k != start_slot &&
          k % checkpoint_period_ == 0) {
        const bool ok = guarded([&] {
          if (s == 0) {
            std::ofstream os(config_.checkpoint_path,
                             std::ios::binary | std::ios::trunc);
            PABR_CHECK(os.good(), "cannot open the checkpoint path");
            write_checkpoint(os, k, shards);
            PABR_CHECK(os.good(), "checkpoint write failed");
          }
        });
        if (!ok) break;
      }
      const bool ok =
          guarded([&] {
            shard.drain_and_publish(t0);
            if (reset_slot_ != 0 && k == reset_slot_) {
              shard.reset_measurements(t0);
            }
            if (config_.audit_at_barriers) shard.audit(t0);
          }) &&
          guarded([&] { shard.compute_contributions(t0); }) &&
          guarded([&] { shard.finalize_reservations(t0); }) &&
          guarded([&] { shard.process_events(t1); });
      if (!ok) break;
    }
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_shards) - 1);
  for (int s = 1; s < num_shards; ++s) {
    threads.emplace_back(worker, s);
  }
  worker(0);
  for (auto& t : threads) t.join();
  const auto wall_end = std::chrono::steady_clock::now();

  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  const sim::Time end = config_.duration_s;
  if (config_.audit_at_barriers) {
    for (const auto& shard : shards) shard->audit(end);
  }

  ShardedResult result;
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  core::SystemStatus st;
  double br_sum = 0.0;
  double bu_sum = 0.0;
  util::Fnv1a digest;
  const int n = grid_.num_cells();
  result.cells.reserve(static_cast<std::size_t>(n));
  for (geom::CellId c = 0; c < n; ++c) {
    const Shard& shard = *shards[static_cast<std::size_t>(partition_.owner(c))];
    const core::CellStatus row = shard.cell_status(c, end);
    result.cells.push_back(row);

    st.requests += row.requests;
    st.blocks += row.blocks;
    st.handoffs += row.handoffs;
    st.drops += row.drops;
    br_sum += row.br_avg;
    bu_sum += row.bu_avg;

    digest.add_double(row.bu);
    digest.add_u64(
        static_cast<std::uint64_t>(shard.cell_state(c).connection_count()));
    digest.add_double(row.br);
    digest.add_double(row.t_est);
    digest.add_u64(row.blocks);
    digest.add_u64(row.requests);
    digest.add_u64(row.drops);
    digest.add_u64(row.handoffs);
    digest.add_double(row.br_avg);
    digest.add_double(row.bu_avg);
  }
  st.pcb = ratio_of(st.blocks, st.requests);
  st.phd = ratio_of(st.drops, st.handoffs);
  st.br_avg = br_sum / static_cast<double>(n);
  st.bu_avg = bu_sum / static_cast<double>(n);

  // N_calc is a mean of integer per-admission counts: recover the exact
  // sums (integers, exact in double) and re-divide, so the merged value
  // is independent of how admissions were spread across shards.
  double calc_sum = 0.0;
  double admissions = 0.0;
  std::vector<telemetry::MetricsSnapshot> snaps;
  for (auto& shard : shards) {
    const auto& acc = shard->accountant();
    calc_sum +=
        acc.n_calc() * static_cast<double>(acc.admissions_observed());
    admissions += static_cast<double>(acc.admissions_observed());
    st.br_calculations += acc.total_br_calculations();
    result.events += shard->events_processed();
    result.active_connections += shard->active_connections();
    if (shard->telemetry().enabled()) {
      snaps.push_back(shard->telemetry().snapshot());
    }
  }
  st.n_calc = admissions == 0.0 ? 0.0 : calc_sum / admissions;
  result.status = st;
  if (!snaps.empty()) result.telemetry = telemetry::merge_snapshots(snaps);

  digest.add_u64(result.events);
  result.digest = digest.value();
  result.events_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.events) / result.wall_seconds
          : 0.0;
  return result;
}

}  // namespace pabr::sim::sharded

// Eq. (5) as the control plane computes it: the expected hand-in
// bandwidth from one cell into an adjacent target, summed over the
// source cell's connection table (CellPlane::scratch_contribution).
#include "core/cell_plane.h"

#include <gtest/gtest.h>

#include <vector>

#include "geom/linear_topology.h"
#include "util/check.h"

namespace pabr::core {
namespace {

// Cell 1's estimator observing departures into cell 0 (target) and cell 2.
constexpr geom::CellId kOwner = 1;
constexpr geom::CellId kTarget = 0;
constexpr geom::CellId kOther = 2;
constexpr sim::Time kNow = 100.0;

/// One connection camped in the owner cell.
struct Camped {
  geom::CellId prev = geom::kNoCell;   ///< cell resided in before the owner
  sim::Duration extant_sojourn = 0.0;  ///< time spent in the owner so far
  traffic::Bandwidth bandwidth = 0;
};

class ReservationTest : public ::testing::Test {
 protected:
  ReservationTest() : road_(3, 1.0, /*ring=*/false), plane_(params(road_)) {
    auto& e = plane_.station(kOwner).estimator();
    // From prev = 0 (came from target side): half continue to 2, half turn
    // back to 0, all with sojourn 30.
    e.record({10.0, kTarget, kOther, 30.0});
    e.record({11.0, kTarget, kTarget, 30.0});
    // Started-here mobiles (prev == owner): always exit to target after 50 s.
    e.record({12.0, kOwner, kTarget, 50.0});
  }

  static CellPlane::Params params(const geom::LinearTopology& road) {
    CellPlane::Params p;
    p.topology = &road;
    p.end = road.num_cells();
    p.hoef.t_int = sim::kInfiniteDuration;
    return p;
  }

  void camp(const std::vector<Camped>& connections) {
    for (const Camped& c : connections) {
      traffic::ReservationView view;
      view.reserve_bandwidth = c.bandwidth;
      view.prev_cell = c.prev;
      view.entered_cell_at = kNow - c.extant_sojourn;
      plane_.cell(kOwner).attach(next_id_++, c.bandwidth, view);
    }
  }

  double eq5(geom::CellId target, sim::Duration t_est) const {
    return plane_.scratch_contribution(kOwner, target, kNow, t_est, 0.0);
  }

  geom::LinearTopology road_;
  CellPlane plane_;
  traffic::ConnectionId next_id_ = 1;
};

TEST_F(ReservationTest, EmptyConnectionListReservesNothing) {
  EXPECT_DOUBLE_EQ(eq5(kTarget, 60.0), 0.0);
}

TEST_F(ReservationTest, Eq5SumsBandwidthTimesProbability) {
  // A 4-BU video mobile that came from the target side, extant 0: within
  // 60 s it hands off with p = 1; p(next = target) = 1/2.
  // A 1-BU started-here mobile, extant 0: p(target within 60) = 1.
  camp({{kTarget, 0.0, 4}, {kOwner, 0.0, 1}});
  EXPECT_NEAR(eq5(kTarget, 60.0), 4.0 * 0.5 + 1.0 * 1.0, 1e-12);
}

TEST_F(ReservationTest, ShortWindowShrinksReservation) {
  camp({{kTarget, 0.0, 4}});
  // T_est = 20 s < sojourn 30 s: nothing expected yet.
  EXPECT_DOUBLE_EQ(eq5(kTarget, 20.0), 0.0);
  // T_est = 30 s reaches the observed sojourns.
  EXPECT_NEAR(eq5(kTarget, 30.0), 2.0, 1e-12);
}

TEST_F(ReservationTest, ExtantSojournConditionsTheEstimate) {
  // Mobile from target side, extant 40 s: both prev=target events (sojourn
  // 30) are outlasted -> estimated stationary.
  camp({{kTarget, 40.0, 4}});
  EXPECT_DOUBLE_EQ(eq5(kTarget, 60.0), 0.0);
  // Started-here mobile with extant 40 is still expected (sojourn 50).
  camp({{kOwner, 40.0, 1}});
  EXPECT_NEAR(eq5(kTarget, 60.0), 1.0, 1e-12);
}

TEST_F(ReservationTest, TargetCellMatters) {
  camp({{kTarget, 0.0, 2}});
  EXPECT_NEAR(eq5(kTarget, 60.0), 1.0, 1e-12);  // 2 BU * 1/2
  EXPECT_NEAR(eq5(kOther, 60.0), 1.0, 1e-12);   // 2 BU * 1/2
}

TEST_F(ReservationTest, NegativeWindowRejected) {
  // The window is checked per term, so the rejection needs a connection.
  camp({{kTarget, 0.0, 4}});
  EXPECT_THROW(eq5(kTarget, -1.0), InvariantError);
}

}  // namespace
}  // namespace pabr::core

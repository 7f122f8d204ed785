// Output checks of the benchmark: properties the paper's method must have,
// phrased over plain values so each can be fed a planted wrong value in
// tests/checks_test.cc. None compares against saved output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  ///< the values compared, for the run record
};

/// Incremental recompute_reservation(c) == scratch_reservation(c), bit for
/// bit (DESIGN.md §7: the pair caches are exact, not approximate).
Check bitwise_equal(const std::string& name, double incremental,
                    double scratch);

/// N_calc exactly `expected` (AC1: 1; AC2: the cell plus its neighbours).
/// N_calc is a mean of integer counts, and every test of a policy with a
/// fixed count adds the same integer, so the mean is exact.
Check n_calc_exact(const std::string& name, double n_calc, double expected);

/// N_calc within [lo, hi] (AC3 consults a subset of the neighbours).
Check n_calc_between(const std::string& name, double n_calc, double lo,
                     double hi);

/// Fig. 12: P_HD of AC2/AC3 below the target and below AC1's.
Check phd_below(const std::string& name, double phd, double target,
                double ac1_phd);

/// 0 <= B_u <= C.
Check bu_within_capacity(const std::string& name, double bu,
                         double capacity);

/// Eq. (7): the time-averaged carried load of a cell is the offered load L
/// less what was blocked, L * (1 - P_CB), less what hand-off drops cut
/// short. It may exceed that by at most `above` and fall short by at most
/// `below` (relative tolerances covering the run's sampling noise and the
/// drops).
Check carried_load(const std::string& name, double bu_avg, double load,
                   double pcb, double above, double below);

/// Retries only add attempts: the actual offered load of an hour is at
/// least the profile's mean for that hour, less `z` standard deviations of
/// the Poisson count of `expected_requests` first attempts.
Check offered_load_at_least(const std::string& name, double actual,
                            double profile, double expected_requests,
                            double z);

/// Two trajectory digests are equal.
Check digests_equal(const std::string& name, std::uint64_t a,
                    std::uint64_t b);

/// Tally of a list of checks.
struct CheckTally {
  int attempted = 0;
  int failed = 0;
  void add(const Check& c) {
    ++attempted;
    if (!c.ok) ++failed;
  }
};

}  // namespace perfbench

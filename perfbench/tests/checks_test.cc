// Planted-value tests of the benchmark's output checks: each check passes
// on a value the method guarantees and fails on a planted wrong one.
#include <cmath>
#include <cstdio>
#include <limits>

#include "checks.h"

namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void bitwise() {
  const double br = 12.345678901234567;
  expect(perfbench::bitwise_equal("br", br, br).ok, "equal B_r passes");
  const double ulp = std::nextafter(br, std::numeric_limits<double>::max());
  expect(!perfbench::bitwise_equal("br", ulp, br).ok,
         "B_r off by one ulp fails");
  expect(!perfbench::bitwise_equal("br", 0.0, -0.0).ok,
         "+0 vs -0 differ bitwise");
}

void n_calc() {
  expect(perfbench::n_calc_exact("ac1", 1.0, 1.0).ok, "AC1 N_calc 1 passes");
  expect(perfbench::n_calc_exact("ac2", 3.0, 3.0).ok, "AC2 N_calc 3 passes");
  expect(!perfbench::n_calc_exact("ac2", 2.9, 3.0).ok,
         "AC2 N_calc 2.9 fails");
  expect(!perfbench::n_calc_exact("ac2", 2.999999, 3.0).ok,
         "AC2 N_calc just below 3 fails");
  expect(perfbench::n_calc_between("ac3", 1.7, 1.0, 3.0).ok,
         "AC3 N_calc 1.7 passes");
  expect(!perfbench::n_calc_between("ac3", 3.01, 1.0, 3.0).ok,
         "AC3 N_calc above 3 fails");
  expect(!perfbench::n_calc_between("ac3", 0.5, 1.0, 3.0).ok,
         "AC3 N_calc below 1 fails");
}

void phd() {
  expect(perfbench::phd_below("ac2", 0.004, 0.01, 0.02).ok,
         "P_HD below target and AC1 passes");
  expect(!perfbench::phd_below("ac2", 0.011, 0.01, 0.02).ok,
         "P_HD above target fails");
  expect(!perfbench::phd_below("ac2", 0.004, 0.01, 0.003).ok,
         "P_HD above AC1's fails");
}

void bu() {
  expect(perfbench::bu_within_capacity("bu", 100.0, 100.0).ok,
         "B_u = C passes");
  expect(perfbench::bu_within_capacity("bu", 0.0, 100.0).ok,
         "B_u = 0 passes");
  expect(!perfbench::bu_within_capacity("bu", 101.0, 100.0).ok,
         "B_u above C fails");
  expect(!perfbench::bu_within_capacity("bu", -1.0, 100.0).ok,
         "negative B_u fails");
  expect(!perfbench::bu_within_capacity("bu", std::nan(""), 100.0).ok,
         "NaN B_u fails");
}

void carried() {
  // L = 300, P_CB = 0.7: L * (1 - P_CB) = 90.
  expect(perfbench::carried_load("c", 89.0, 300.0, 0.7, 0.03, 0.10).ok,
         "carried load just below L(1-P_CB) passes");
  expect(!perfbench::carried_load("c", 95.0, 300.0, 0.7, 0.03, 0.10).ok,
         "carried load above L(1-P_CB) fails");
  expect(!perfbench::carried_load("c", 70.0, 300.0, 0.7, 0.03, 0.10).ok,
         "carried load far below L(1-P_CB) fails");
}

void offered() {
  // 12,000 expected first attempts: 5 sigma is about 4.6%.
  expect(perfbench::offered_load_at_least("h", 40.5, 40.0, 12000.0, 5.0).ok,
         "offered load above the profile passes");
  expect(perfbench::offered_load_at_least("h", 39.5, 40.0, 12000.0, 5.0).ok,
         "offered load within the Poisson tolerance passes");
  expect(!perfbench::offered_load_at_least("h", 37.0, 40.0, 12000.0, 5.0).ok,
         "offered load below the tolerance fails");
}

void digests() {
  const std::uint64_t d = 0x0123456789abcdefULL;
  expect(perfbench::digests_equal("d", d, d).ok, "equal digests pass");
  expect(!perfbench::digests_equal("d", d, d ^ (std::uint64_t{1} << 17)).ok,
         "digest with one bit flipped fails");
}

}  // namespace

int main() {
  bitwise();
  n_calc();
  phd();
  bu();
  carried();
  offered();
  digests();
  if (g_failures == 0) std::printf("perfbench checks: all planted values caught\n");
  return g_failures == 0 ? 0 : 1;
}

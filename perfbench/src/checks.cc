#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

template <typename... Args>
std::string fmt(const char* spec, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), spec, args...);
  return buf;
}

}  // namespace

Check bitwise_equal(const std::string& name, double incremental,
                    double scratch) {
  const bool ok = std::bit_cast<std::uint64_t>(incremental) ==
                  std::bit_cast<std::uint64_t>(scratch);
  return {name, ok, fmt("incremental=%.17g scratch=%.17g", incremental,
                        scratch)};
}

Check n_calc_exact(const std::string& name, double n_calc,
                   double expected) {
  return {name, n_calc == expected,
          fmt("n_calc=%.17g expected=%.17g", n_calc, expected)};
}

Check n_calc_between(const std::string& name, double n_calc, double lo,
                     double hi) {
  return {name, n_calc >= lo && n_calc <= hi,
          fmt("n_calc=%.17g in [%g, %g]", n_calc, lo, hi)};
}

Check phd_below(const std::string& name, double phd, double target,
                double ac1_phd) {
  return {name, phd < target && phd < ac1_phd,
          fmt("phd=%.6g target=%g ac1_phd=%.6g", phd, target, ac1_phd)};
}

Check bu_within_capacity(const std::string& name, double bu,
                         double capacity) {
  return {name, bu >= 0.0 && bu <= capacity,
          fmt("bu=%.17g capacity=%.17g", bu, capacity)};
}

Check carried_load(const std::string& name, double bu_avg, double load,
                   double pcb, double above, double below) {
  const double carried = load * (1.0 - pcb);
  const bool ok =
      bu_avg <= carried * (1.0 + above) && bu_avg >= carried * (1.0 - below);
  return {name, ok,
          fmt("bu_avg=%.6g L(1-P_CB)=%.6g ratio=%.6g", bu_avg, carried,
              carried > 0.0 ? bu_avg / carried : 0.0)};
}

Check offered_load_at_least(const std::string& name, double actual,
                            double profile, double expected_requests,
                            double z) {
  const double floor =
      profile * (1.0 - z / std::sqrt(std::max(expected_requests, 1.0)));
  return {name, actual >= floor,
          fmt("L_a=%.6g floor=%.6g profile=%.6g", actual, floor, profile)};
}

Check digests_equal(const std::string& name, std::uint64_t a,
                    std::uint64_t b) {
  return {name, a == b,
          fmt("%016llx vs %016llx", static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b))};
}

}  // namespace perfbench

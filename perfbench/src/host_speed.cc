#include "host_speed.h"

#include <algorithm>
#include <random>
#include <vector>

#include "spans.h"

namespace perfbench {
namespace {

// Timed host seconds between kernel samples, and a typical kernel time on
// the reference host (factor 1; it only sets the scale of the figures).
constexpr double kPeriod = 0.1;
constexpr double kReference = 2.5e-3;

constexpr std::size_t kKeys = 32768;
constexpr std::size_t kHeap = 8192;
constexpr std::size_t kOps = 24000;

volatile double g_kernel_sink = 0.0;

const std::vector<double>& kernel_keys() {
  static const std::vector<double> keys = [] {
    std::mt19937_64 gen(12345);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> v(kKeys);
    for (double& x : v) x = u(gen);
    return v;
  }();
  return keys;
}

/// Runs the kernel once and returns its host seconds.
double time_kernel() {
  const std::vector<double>& keys = kernel_keys();
  static std::vector<double> heap(kHeap);
  // Bring the kernel's own data (the keys and the heap) back into the
  // caches before the clock starts: the program's working set may have
  // pushed them out, and the kernel's time must not depend on how much.
  double sum = 0.0;
  for (const double k : keys) sum += k;
  std::copy(keys.begin(), keys.begin() + kHeap, heap.begin());
  const double t0 = now_s();
  std::make_heap(heap.begin(), heap.end());
  for (std::size_t i = 0; i < kOps; ++i) {
    sum += heap.front();
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = keys[(i * 7) % kKeys];
    std::push_heap(heap.begin(), heap.end());
  }
  const double t = now_s() - t0;
  g_kernel_sink = sum;
  return t;
}

}  // namespace

SpeedMeter::SpeedMeter() {
  kernel_keys();
  mark_ = now_s();
}

void SpeedMeter::lap() {
  const double t = now_s();
  pending_ += t - mark_;
  mark_ = t;
  if (pending_ >= kPeriod) sample();
}

void SpeedMeter::finish() {
  lap();
  if (pending_ > 0.0) sample();
}

void SpeedMeter::sample() {
  const double factor = kReference / time_kernel();
  wall_ += pending_;
  ref_ += pending_ * factor;
  pending_ = 0.0;
  mark_ = now_s();  // the kernel's own time is not timed work
}

}  // namespace perfbench

// Host-speed meter.
//
// On the reference host (a 4-vCPU KVM guest) the speed of the simulator's
// code swings by about ±20% between stretches that last from a few to a
// few tens of seconds, while process CPU time follows wall time and a
// plain ALU loop keeps its speed. A heap kernel (pop/push on a binary heap
// of 8192 doubles), which does not touch the program, slows in the same
// stretches. Timed on the same thread between short chunks of the
// simulation, it explained all but about 2% of the swing in 3-s windows
// (README.md). The meter runs the kernel after every
// kPeriod of timed host time — about 3% on top — and credits the host
// seconds of the chunks before it at the speed factor
// kReference / kernel seconds, so a slow stretch of the host no longer
// reads as a slow program.
#pragma once

namespace perfbench {

class SpeedMeter {
 public:
  /// Starts timing at now_s().
  SpeedMeter();

  /// Call after every chunk of timed work: books the host seconds since
  /// the last call and, once kPeriod has gathered, samples the kernel and
  /// credits them at its speed factor.
  void lap();

  /// Books the rest, sampling once more.
  void finish();

  /// Host seconds of the timed chunks, kernel time excluded.
  double wall_s() const { return wall_; }
  /// wall_s() scaled by the speed factors: host seconds on a host that
  /// runs the kernel in kReference.
  double ref_s() const { return ref_; }

 private:
  void sample();

  double mark_ = 0.0;     ///< end of the last booked interval
  double pending_ = 0.0;  ///< timed seconds not yet credited
  double wall_ = 0.0;
  double ref_ = 0.0;
};

}  // namespace perfbench

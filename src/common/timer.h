#ifndef VF2BOOST_COMMON_TIMER_H_
#define VF2BOOST_COMMON_TIMER_H_

#include <chrono>

namespace vf2boost {

/// \brief Monotonic wall-clock stopwatch used by the benchmark harnesses and
/// the cost-model calibration.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace vf2boost

#endif  // VF2BOOST_COMMON_TIMER_H_

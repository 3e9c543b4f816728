/// \file stopwatch.h
/// \brief Wall-clock timer for round timing and benchmark reporting.

#ifndef FEDADMM_UTIL_STOPWATCH_H_
#define FEDADMM_UTIL_STOPWATCH_H_

#include <chrono>

namespace fedadmm {

/// \brief Measures elapsed wall-clock time since construction or Reset().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since the last Reset() (or construction).
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since the last Reset() (or construction).
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fedadmm

#endif  // FEDADMM_UTIL_STOPWATCH_H_

//===- support/SimTime.h - Simulated-time types ---------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integer nanosecond time types used throughout the discrete-event
/// simulation. All timestamps are deterministic simulated time, never wall
/// clock. Using 64-bit integer nanoseconds keeps event ordering exact and
/// reproducible across platforms (no floating-point tie ambiguity).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_SIMTIME_H
#define FCL_SUPPORT_SIMTIME_H

#include <cassert>
#include <compare>
#include <cstdint>

namespace fcl {

/// A span of simulated time in integer nanoseconds.
class Duration {
public:
  constexpr Duration() = default;
  constexpr explicit Duration(int64_t Nanos) : Nanos(Nanos) {}

  static constexpr Duration zero() { return Duration(0); }
  static constexpr Duration nanoseconds(int64_t N) { return Duration(N); }
  static constexpr Duration microseconds(int64_t U) {
    return Duration(U * 1000);
  }
  static constexpr Duration milliseconds(int64_t M) {
    return Duration(M * 1000 * 1000);
  }
  /// Converts (possibly fractional) seconds to a duration, rounding to the
  /// nearest nanosecond, clamping negatives and NaN to zero and saturating
  /// at the largest duration instead of overflowing.
  static Duration seconds(double S) {
    if (!(S > 0))
      return zero();
    double N = S * 1e9 + 0.5;
    if (N >= 0x1p63)
      return Duration(INT64_MAX);
    return Duration(static_cast<int64_t>(N));
  }

  constexpr int64_t nanos() const { return Nanos; }
  constexpr double toSeconds() const { return static_cast<double>(Nanos) * 1e-9; }
  constexpr double toMillis() const { return static_cast<double>(Nanos) * 1e-6; }
  constexpr double toMicros() const { return static_cast<double>(Nanos) * 1e-3; }

  constexpr Duration operator+(Duration RHS) const {
    return Duration(Nanos + RHS.Nanos);
  }
  constexpr Duration operator-(Duration RHS) const {
    return Duration(Nanos - RHS.Nanos);
  }
  constexpr Duration operator*(int64_t K) const { return Duration(Nanos * K); }
  Duration &operator+=(Duration RHS) {
    Nanos += RHS.Nanos;
    return *this;
  }
  constexpr auto operator<=>(const Duration &) const = default;

private:
  int64_t Nanos = 0;
};

/// An absolute point in simulated time (nanoseconds since simulation start).
class TimePoint {
public:
  constexpr TimePoint() = default;
  constexpr explicit TimePoint(int64_t Nanos) : Nanos(Nanos) {}

  constexpr int64_t nanos() const { return Nanos; }
  constexpr double toSeconds() const { return static_cast<double>(Nanos) * 1e-9; }

  constexpr TimePoint operator+(Duration D) const {
    return TimePoint(Nanos + D.nanos());
  }
  constexpr Duration operator-(TimePoint RHS) const {
    return Duration(Nanos - RHS.Nanos);
  }
  constexpr auto operator<=>(const TimePoint &) const = default;

private:
  int64_t Nanos = 0;
};

} // namespace fcl

#endif // FCL_SUPPORT_SIMTIME_H

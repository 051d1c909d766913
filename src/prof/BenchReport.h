//===- prof/BenchReport.h - Host benchmark measures -------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level measures a host benchmark reads besides the profiler's
/// phases: today the peak resident set size, which perfbench reports as
/// `peak_rss_mb` (see docs/OBSERVABILITY.md, "Host performance").
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PROF_BENCHREPORT_H
#define FCL_PROF_BENCHREPORT_H

#include <cstdint>

namespace fcl {
namespace prof {

/// Peak resident set size of this process, in bytes (0 if unavailable).
uint64_t peakRssBytes();

} // namespace prof
} // namespace fcl

#endif // FCL_PROF_BENCHREPORT_H

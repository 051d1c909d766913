//===- prof/BenchReport.cpp - Host benchmark measures ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "prof/BenchReport.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

uint64_t fcl::prof::peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(Usage.ru_maxrss); // Bytes on macOS.
#else
  return static_cast<uint64_t>(Usage.ru_maxrss) * 1024; // KiB on Linux.
#endif
#else
  return 0;
#endif
}

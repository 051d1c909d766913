//===- bench/BenchUtil.h - Shared bench-harness helpers ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure/per-table bench harnesses: number
/// formatting, normalized-time helpers, and CSV emission next to the
/// human-readable tables.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_BENCHUTIL_H
#define FCL_BENCHUTIL_H

#include "stats/Report.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/SimTime.h"

#include <cstdio>
#include <string>
#include <vector>

namespace fcl {
namespace bench {

inline std::string fmtSeconds(Duration D) {
  return formatString("%.4f", D.toSeconds());
}

inline std::string fmtNorm(double V) { return formatString("%.3f", V); }

inline void writeCsv(const CsvWriter &Csv, const std::string &Path) {
  if (Csv.writeFile(Path))
    std::printf("(series written to %s)\n", Path.c_str());
  else
    std::printf("(warning: could not write %s)\n", Path.c_str());
}

/// Writes a figure's run reports as a stats sidecar ("<stem>.stats.json")
/// next to its CSV, so scripts/plot_results.py can draw device-split bars.
inline void writeStatsSidecar(const std::vector<stats::RunReport> &Reports,
                              const std::string &Stem) {
  std::string Path = Stem + ".stats.json";
  if (stats::writeReportsJson(Reports, Path))
    std::printf("(stats sidecar written to %s, %zu runs)\n", Path.c_str(),
                Reports.size());
  else
    std::printf("(warning: could not write %s)\n", Path.c_str());
}

inline void printHeader(const char *Id, const char *Title) {
  std::printf("==============================================================\n"
              "%s - %s\n"
              "==============================================================\n",
              Id, Title);
}

} // namespace bench
} // namespace fcl

#endif // FCL_BENCHUTIL_H

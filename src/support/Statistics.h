//===- support/Statistics.h - Summary statistics helpers ------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mean / geometric-mean / min / max helpers used by the benchmark
/// harnesses (the paper reports geomean speedups) and by the adaptive
/// chunk-size controller.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_STATISTICS_H
#define FCL_SUPPORT_STATISTICS_H

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace fcl {

/// Arithmetic mean of \p Values; 0 for an empty input.
double mean(const std::vector<double> &Values);

/// Geometric mean of \p Values; 0 for an empty input. All values must be
/// positive.
double geomean(const std::vector<double> &Values);

/// Sample standard deviation; 0 when fewer than two values.
double stddev(const std::vector<double> &Values);

/// Nearest-rank percentiles of \p Values, one per entry of \p Pcts (each
/// in [0, 100]), read from one sorted copy: the smallest value with at
/// least Pct% of the samples at or below it. Pct 0 gives the min and 100
/// the max; every percentile of an empty input is 0.
std::vector<double> percentiles(std::vector<double> Values,
                                std::initializer_list<double> Pcts);

/// Incremental accumulator for min/max/mean over a stream of samples.
class Accumulator {
public:
  void add(double Value);

  size_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }
  double min() const { return Count ? Min : 0; }
  double max() const { return Count ? Max : 0; }

private:
  size_t Count = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
};

} // namespace fcl

#endif // FCL_SUPPORT_STATISTICS_H

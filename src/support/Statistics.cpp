//===- support/Statistics.cpp - Summary statistics helpers ---------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace fcl;

double fcl::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double fcl::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values) {
    FCL_CHECK(V > 0, "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double fcl::stddev(const std::vector<double> &Values) {
  if (Values.size() < 2)
    return 0;
  double M = mean(Values);
  double SqSum = 0;
  for (double V : Values)
    SqSum += (V - M) * (V - M);
  return std::sqrt(SqSum / static_cast<double>(Values.size() - 1));
}

std::vector<double> fcl::percentiles(std::vector<double> Values,
                                     std::initializer_list<double> Pcts) {
  std::sort(Values.begin(), Values.end());
  std::vector<double> Out;
  Out.reserve(Pcts.size());
  for (double Pct : Pcts) {
    FCL_CHECK(Pct >= 0 && Pct <= 100, "percentile out of range");
    // Nearest-rank: rank ceil(Pct% of N), counted from 1; rank 0 (Pct 0)
    // reads the min.
    size_t Rank = static_cast<size_t>(
        std::ceil(Pct / 100.0 * static_cast<double>(Values.size())));
    Out.push_back(Values.empty() ? 0 : Values[Rank == 0 ? 0 : Rank - 1]);
  }
  return Out;
}

void Accumulator::add(double Value) {
  if (Count == 0) {
    Min = Max = Value;
  } else {
    if (Value < Min)
      Min = Value;
    if (Value > Max)
      Max = Value;
  }
  Sum += Value;
  ++Count;
}

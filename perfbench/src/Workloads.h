//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads behind one interface. Each drives a library
/// tier through its public API only: serve::Engine, cluster::Cluster, or
/// the blocking fluidicl::Runtime calls of a paper application. main.cpp
/// times setup() and the timed section of iterate(), repeats
/// iterations, checks their outputs and turns them into metrics.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PERFBENCH_WORKLOADS_H
#define FCL_PERFBENCH_WORKLOADS_H

#include "SpanLog.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The generated configuration of one run. The benchmark's launcher derives
/// it from the workload name and the seed; this program never sees the
/// seed itself.
struct Config {
  std::string Workload;
  /// "serve", "cluster" or "paper".
  std::string Kind;
  /// Load-generator seeds, one per configuration the iterations cycle over.
  std::vector<uint64_t> Seeds;
  std::string Mix = "mixed";
  int Streams = 8;
  double RatePerSec = 150;
  int QueueDepth = 64;
  double HorizonS = 0.25;
  int Workers = 2;
  /// serve only: check=warn, races=warn, Chrome trace and reports rendered.
  /// The timed loop arms the first few seeds; the simulated outcome pools
  /// plain runs of every seed (observers never change it, and each armed
  /// report is checked byte-identical to its plain twin).
  bool Armed = false;
  /// paper only: problem size of the six applications.
  int PaperSize = 512;
};

/// What one iteration produced.
struct IterOutcome {
  /// Host seconds of the timed section (the jobs themselves).
  double HostS = 0;
  uint64_t Attempted = 0;
  /// Jobs that completed and passed validation.
  uint64_t Ok = 0;
  /// Simulated end-to-end latency of every completed job, ms.
  std::vector<double> SimLatMs;
  /// Simulated seconds the jobs spanned (makespan, or summed run times).
  double SimSpanS = 0;
  /// Deterministic output bytes; repeats of one configuration must match.
  std::string Fingerprint;
  /// Names of output checks that failed in this iteration.
  std::vector<std::string> FailedChecks;
  /// Per-layer counts read from the public reports.
  std::map<std::string, double> Layer;
};

/// The simulated outcome the sim_* metrics summarize.
struct SimPool {
  std::vector<double> LatMs;
  double SpanS = 0;
  uint64_t Ok = 0;

  void add(const IterOutcome &O) {
    LatMs.insert(LatMs.end(), O.SimLatMs.begin(), O.SimLatMs.end());
    SpanS += O.SimSpanS;
    Ok += O.Ok;
  }
};

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Builds everything the first job needs: templates, DAG graphs, host
  /// input data and reference results. Timed, and repeated, as setup_s.
  virtual void setup(SpanLog &L) = 0;

  /// Distinct configurations one pass of iterations cycles over.
  virtual size_t configs() const { return 1; }

  /// Runs configuration \p Idx once.
  virtual IterOutcome iterate(size_t Idx, SpanLog &L) = 0;

  /// Simulated speedup of cooperative execution over the better single
  /// device, geomean over the workload's applications. Valid after setup()
  /// and one pass of iterate().
  virtual double speedupGeomean() const = 0;

  /// After the timed loop: runs the checks that need extra runs, appending
  /// the names of those that failed, and may replace \p Sim (by default
  /// the first iteration of every configuration) with a larger outcome.
  virtual void finish(std::vector<std::string> &Failed, SimPool &Sim) {
    (void)Failed;
    (void)Sim;
  }

  /// Traced mode only: extra per-layer numbers from twin runs.
  virtual void twinLayers(std::map<std::string, double> &Layer) {
    (void)Layer;
  }
};

/// Null (with a message on stderr) for an unknown Config::Kind.
std::unique_ptr<BenchWorkload> makeWorkload(const Config &C);

} // namespace perfbench

#endif // FCL_PERFBENCH_WORKLOADS_H

//===- tools/fluidicl_serve.cpp - Multi-tenant serving driver --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the fcl::serve engine: N concurrent client streams submitting
/// Polybench jobs over the simulated CPU+GPU pair under a chosen
/// scheduling policy, and prints a throughput/latency report.
///
///   fluidicl_serve --streams=8 --policy=corun --arrival=poisson:120
///       --duration=0.25 --slo-ms=20 --stats-json=serve.json
///
/// Options shared with fluidicl_cluster and the exit statuses are in
/// TierOptions.h.
///
//===----------------------------------------------------------------------===//

#include "TierOptions.h"

using namespace fcl;

int main(int Argc, char **Argv) {
  TierOptions Opts("fluidicl_serve",
                   "multi-tenant kernel-stream serving over the simulated "
                   "CPU+GPU pair",
                   "request");
  Opts.args().addFlag("dag-stats",
                      "print the DAG shape table of the chosen mix and exit");
  serve::EngineConfig Cfg;
  if (std::optional<int> Status = Opts.parse(Argc, Argv, Cfg))
    return *Status;
  if (Opts.args().flag("dag-stats")) {
    // Deterministic shape table of the mix's templates; compound ones get
    // their graph metrics, plain ones a "-" row.
    std::printf("%-14s %-8s %5s %5s %5s %9s\n", "template", "shape", "nodes",
                "edges", "width", "groups");
    for (const serve::JobTemplate &T : serve::jobTemplates(Cfg.Mix)) {
      if (T.Dag)
        std::printf("%-14s %-8s %5zu %5zu %5zu %9llu\n", T.W.Name.c_str(),
                    T.Dag->shapeName(), T.Dag->size(), T.Dag->numEdges(),
                    T.Dag->maxParallelism(),
                    static_cast<unsigned long long>(T.MaxGroups));
      else
        std::printf("%-14s %-8s %5zu %5s %5s %9llu\n", T.W.Name.c_str(), "-",
                    T.W.Calls.size(), "-", "-",
                    static_cast<unsigned long long>(T.MaxGroups));
    }
    return 0;
  }
  if (std::string Invalid = Cfg.validate(); !Invalid.empty())
    return TierOptions::usageError(Invalid);

  serve::Engine Engine(Cfg);
  return Opts.finish(Engine.run());
}

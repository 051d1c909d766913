//===- tools/fluidicl_cluster.cpp - Sharded multi-pair serve driver -------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the fcl::cluster tier: a master shards kernel streams across N
/// worker pairs (one serve engine + private simulator + OS thread each),
/// with epoch-barrier work stealing, and prints a cluster-level
/// throughput/latency report. Same seed, same configuration =>
/// byte-identical report at any worker count, by construction.
///
///   fluidicl_cluster --workers=4 --placement=least --steal=on
///       --streams=16 --policy=corun --arrival=poisson:400
///       --duration=0.25 --stats-json=cluster.json
///
/// Options shared with fluidicl_serve and the exit statuses are in
/// TierOptions.h.
///
//===----------------------------------------------------------------------===//

#include "TierOptions.h"
#include "cluster/Cluster.h"
#include "support/Format.h"

using namespace fcl;

int main(int Argc, char **Argv) {
  TierOptions Opts("fluidicl_cluster",
                   "sharded multi-pair serving: a master shards kernel "
                   "streams across N simulated CPU+GPU worker pairs",
                   "job");
  ArgParser &Args = Opts.args();
  Args.addOption("workers", "worker pairs (one thread + simulator each)",
                 "2");
  Args.addOption("placement", "worker placement policy: hash|least|size",
                 "least");
  Args.addOption("steal", "epoch-boundary work stealing: on|off", "on");
  Args.addOption("quantum-ms", "fabric epoch quantum in simulated ms", "1");
  Args.addOption("link-us",
                 "simulated link latency per stolen-job transfer in us",
                 "20");
  cluster::ClusterConfig Cfg;
  if (std::optional<int> Status = Opts.parse(Argc, Argv, Cfg.Worker))
    return *Status;
  if (std::optional<int> Status = Opts.intOption("workers", Cfg.Workers))
    return *Status;
  if (!cluster::parsePlacement(Args.str("placement"), Cfg.Place))
    return TierOptions::usageError(
        formatString("unknown --placement '%s' (hash|least|size)",
                     Args.str("placement").c_str()));
  const std::string &Steal = Args.str("steal");
  if (Steal != "on" && Steal != "off")
    return TierOptions::usageError(
        formatString("bad --steal value '%s' (on|off)", Steal.c_str()));
  Cfg.Steal = Steal == "on";
  Cfg.Quantum = signedSeconds(Args.f64("quantum-ms") * 1e-3);
  Cfg.LinkLatency = signedSeconds(Args.f64("link-us") * 1e-6);
  if (std::string Invalid = Cfg.validate(); !Invalid.empty())
    return TierOptions::usageError(Invalid);

  cluster::Cluster Tier(Cfg);
  return Opts.finish(Tier.run());
}

//===- cluster/Cluster.h - Sharded multi-pair serve tier --------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fcl::cluster scales the fcl::serve tier out: a master shards kernel
/// streams across N worker pairs, each worker an independent serve::Engine
/// over its own simulated CPU+GPU machine with its own virtual clock,
/// running on its own OS thread. The Maiter-style master/worker split
/// keeps all global decisions (placement, stealing, outcome accounting)
/// on the master; workers only execute.
///
/// Determinism model - the whole design hangs off one invariant:
///
///   Worker simulators advance in lockstep epochs of `Quantum` simulated
///   time, separated by a fabric barrier (cluster/Fabric.h). All
///   cross-worker traffic - arrival injection, steal transfers, outcome
///   collection - happens in the master's between-epochs phase while
///   every worker is parked. A worker's simulator therefore sees exactly
///   the same event sequence no matter how the OS schedules the threads,
///   and same-seed runs produce byte-identical reports (and traces) at
///   any worker count.
///
/// Work stealing moves whole queued jobs (job granularity - queued
/// requests have no device state yet) from the deepest queue to idle
/// workers at epoch boundaries, charging a simulated link latency for the
/// transfer. Placement policies are in cluster/Placement.h.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_CLUSTER_CLUSTER_H
#define FCL_CLUSTER_CLUSTER_H

#include "cluster/Fabric.h"
#include "cluster/Placement.h"
#include "cluster/Report.h"
#include "serve/Engine.h"
#include "support/Rng.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace fcl {
namespace cluster {

struct ClusterConfig {
  /// Worker pairs (each one serve::Engine over its own simulator).
  int Workers = 2;
  Placement Place = Placement::LeastLoaded;
  /// Epoch-boundary work stealing (job granularity).
  bool Steal = true;
  /// Simulated time per fabric epoch. Smaller quanta react faster to
  /// imbalance (more steal opportunities) at more barrier crossings.
  Duration Quantum = Duration::milliseconds(1);
  /// Simulated cost of migrating a stolen job between workers; a small
  /// deterministic jitter (master RNG) is added per transfer.
  Duration LinkLatency = Duration::microseconds(20);

  /// Per-worker serve configuration. Streams is the *cluster-wide* client
  /// stream count; arrivals are generated once by the master and sharded
  /// by placement. Closed-loop arrivals are not supported (the think loop
  /// would couple worker clocks); validate() rejects them.
  serve::EngineConfig Worker;

  /// Upper bound on fabric epochs, as a quiescence failsafe. validate()
  /// keeps the admission window to at most half of them, which leaves the
  /// drain at least as many again.
  static constexpr uint64_t MaxEpochs = 1u << 22;

  /// Range rules for the cluster fields, then Worker.validate(), then the
  /// window's epoch count: empty when valid, else a one-line message naming
  /// the tool option. The tool prints it; Cluster's constructor FCL_CHECKs
  /// it.
  std::string validate() const;
};

/// One Cluster instance runs one complete cluster experiment.
class Cluster {
public:
  explicit Cluster(ClusterConfig Cfg);
  ~Cluster();

  /// Generates the cluster load, runs all workers to completion and
  /// returns the aggregate report.
  ClusterReport run();

private:
  /// Master-side per-worker state.
  struct Worker {
    int Index = 0;
    std::unique_ptr<serve::Engine> Eng;
    std::unique_ptr<trace::Tracer> Trace;
    /// Outcome outbox: filled by the engine on the worker's thread during
    /// its quantum, drained by the master at the next barrier.
    std::vector<serve::JobOutcome> Outbox;
    /// fcl::race shadow object for the outbox (the one master/worker
    /// shared structure outside the engines).
    std::string OutboxObj;
    /// Master bookkeeping for placement decisions (never reads engine
    /// internals mid-epoch): jobs placed here and not yet reported back.
    uint64_t OutstandingJobs = 0;
    uint64_t OutstandingGroups = 0;
    // Report tallies.
    uint64_t Assigned = 0;
    uint64_t Completed = 0;
    uint64_t Rejected = 0;
    uint64_t StolenIn = 0;
    std::vector<double> E2eMs;
  };

  void drawArrivals();
  int placeJob(const serve::Arrival &D);
  void injectDraw(uint64_t Id, const serve::Arrival &D, int W);
  void drainOutboxes();
  void stealPass(TimePoint EpochStart);
  void workerMain(Worker &W);
  void finalize(ClusterReport &Rep,
                const std::vector<serve::ServeReport> &WReps);

  ClusterConfig Cfg;
  std::vector<serve::JobTemplate> Templates;
  std::vector<std::unique_ptr<Worker>> Workers;
  /// The cluster-wide load, sorted by arrival time.
  std::vector<serve::Arrival> Draws;
  std::vector<ClusterJobRecord> Jobs;
  EpochBarrier Barrier;
  /// Master-only RNG for steal-transfer jitter.
  Rng MasterRng;
  bool RacesOn = false;

  uint64_t EpochsRun = 0;
  uint64_t Messages = 0;
  uint64_t StealsN = 0;
  uint64_t RebalanceEpochsN = 0;
  uint64_t RejectedN = 0;
  uint64_t CompletedN = 0;
  uint64_t StolenN = 0;
  TimePoint LastEnd;

  /// fcl::race shadow objects for the master's own shared structures.
  std::string JobsObj;
};

} // namespace cluster
} // namespace fcl

#endif // FCL_CLUSTER_CLUSTER_H

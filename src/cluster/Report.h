//===- cluster/Report.h - Cluster-level serving metrics ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregate outcome of one fcl::cluster run: cluster-level latency
/// distributions (a job's clock starts at its cluster arrival, so steal
/// transfer latency is part of its queue wait), per-worker utilization and
/// steal/placement counters, and the fabric's epoch/message totals.
///
/// Serializes to a deterministic JSON document ("fcl-cluster-report-v1")
/// through the same shared blocks as the serve report, so the CI
/// determinism gates can byte-diff two same-seed runs at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_CLUSTER_REPORT_H
#define FCL_CLUSTER_REPORT_H

#include "serve/Metrics.h"
#include "support/SimTime.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fcl {
namespace cluster {

/// One worker pair's share of the cluster run.
struct WorkerSummary {
  int Index = 0;
  uint64_t Assigned = 0;  // Placed here by the master (first placement).
  uint64_t Completed = 0; // Finished here (includes stolen-in jobs).
  uint64_t Rejected = 0;
  uint64_t StolenIn = 0;
  uint64_t StolenOut = 0;
  double GpuBusyMs = 0;
  double CpuBusyMs = 0;
  /// Device occupancy against the *cluster* makespan, so an idle worker
  /// shows low utilization even if its private makespan was short.
  double GpuUtil = 0;
  double CpuUtil = 0;
  serve::LatencySummary E2e; // Jobs that completed on this worker.
};

/// Final state of one cluster job (master's view).
struct ClusterJobRecord {
  uint64_t Id = 0;
  int Stream = 0;
  std::string Workload;
  uint64_t MaxGroups = 0;
  bool Large = false;
  /// Worker of first placement and the worker that finished the job;
  /// they differ exactly when the job was stolen.
  int FirstWorker = -1;
  int Worker = -1;
  bool Stolen = false;
  bool Rejected = false;
  bool Done = false;
  TimePoint ArrivalAt; // Cluster arrival (pre-placement).
  TimePoint StartAt;
  TimePoint EndAt;

  double queueWaitMs() const { return (StartAt - ArrivalAt).toMillis(); }
  double serviceMs() const { return (EndAt - StartAt).toMillis(); }
  double e2eMs() const { return (EndAt - ArrivalAt).toMillis(); }
};

/// Aggregate outcome of one cluster run. The shared fields (configuration
/// echo, cluster-level latency over completed jobs, SLO binding to cluster
/// e2e, validation summed over workers, check/race verdicts) are in
/// serve::ReportCore; per-worker stats gauges use zero-padded indices so
/// the lexicographic map order matches worker order.
struct ClusterReport : serve::ReportCore {
  // Configuration echo beyond the shared one.
  int Workers = 0;
  std::string PlacementName;
  bool Steal = false;
  double QuantumMs = 0;
  double LinkLatencyUs = 0;

  uint64_t Stolen = 0;
  double ThroughputJps = 0; // Completed / makespan (simulated seconds).

  // Fabric totals.
  uint64_t Epochs = 0;
  uint64_t Messages = 0; // Injections + steal transfers + outcomes.
  uint64_t Steals = 0;
  uint64_t RebalanceEpochs = 0; // Epochs in which at least one steal ran.

  std::vector<WorkerSummary> PerWorker;

  /// Every job in cluster submission order (rejected ones included).
  std::vector<ClusterJobRecord> Jobs;

  /// Deterministic JSON document (schema "fcl-cluster-report-v1").
  std::string toJson() const;

  /// Human-readable report for the tool's stdout.
  std::string toText() const;

  /// Per-job CSV (header + one row per job).
  std::string toCsv() const;
};

} // namespace cluster
} // namespace fcl

#endif // FCL_CLUSTER_REPORT_H

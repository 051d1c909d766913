//===- serve/Metrics.h - Request-level serving metrics ----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request latency accounting and the aggregate serve report. Latency
/// decomposes as
///
///   queue wait = start  - arrival   (admission queue residency)
///   service    = end    - start     (devices working on the job)
///   end-to-end = end    - arrival   (what the client sees; SLOs bind here)
///
/// with p50/p95/p99 computed by nearest rank. The report serializes to a
/// deterministic JSON document ("fcl-serve-report-v1"): map-ordered keys
/// and fixed %.6f float formatting, so identical runs produce identical
/// bytes - the determinism gates in CI diff two same-seed runs directly.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_METRICS_H
#define FCL_SERVE_METRICS_H

#include "stats/Registry.h"
#include "support/Json.h"
#include "support/SimTime.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fcl {
namespace serve {

/// Latency distribution summary in milliseconds.
struct LatencySummary {
  double P50 = 0;
  double P95 = 0;
  double P99 = 0;
  double Mean = 0;
  double Max = 0;
};

/// Summarizes \p ValuesMs (not required to be sorted).
LatencySummary summarizeLatency(const std::vector<double> &ValuesMs);

/// Final state of one request, as recorded by the engine.
struct RequestRecord {
  uint64_t Id = 0;
  int Stream = 0;
  std::string Workload;
  uint64_t MaxGroups = 0;
  bool Large = false;
  bool Rejected = false;
  /// Where the job ran: "pair", "corun", "gpu", "cpu", "cpu-backfill".
  std::string Placement;
  TimePoint ArrivalAt;
  TimePoint StartAt;
  TimePoint EndAt;

  double queueWaitMs() const { return (StartAt - ArrivalAt).toMillis(); }
  double serviceMs() const { return (EndAt - StartAt).toMillis(); }
  double e2eMs() const { return (EndAt - ArrivalAt).toMillis(); }
};

/// The one float format of the serve and cluster reports: fixed %.6f, so
/// identical runs serialize to identical bytes.
inline constexpr const char *ReportFloat = "%.6f";

/// Writes \p S as an inline {"p50", "p95", "p99", "mean", "max"} member.
void writeLatency(JsonWriter &W, std::string_view Key,
                  const LatencySummary &S);

/// What every serving tier's report shares: the configuration echo, job
/// counts, latency summaries and makespan, the SLO and validation
/// verdicts, the check and race verdicts and the stats registry.
/// ServeReport and ClusterReport derive from it and write its blocks
/// around their own, so each shared block is written in one place.
struct ReportCore {
  // Configuration echo (what produced these numbers).
  std::string PolicyName; // Per-worker policy in a cluster.
  std::string ArrivalDesc;
  std::string Mix;
  std::string Machine;
  uint64_t Seed = 0;
  int Streams = 0;    // Cluster-wide in a cluster.
  int QueueDepth = 0; // Per worker in a cluster.
  uint64_t LargeThreshold = 0;
  double HorizonMs = 0;

  // Job counts.
  uint64_t Submitted = 0;
  uint64_t Rejected = 0;
  uint64_t Completed = 0;

  // Latency summaries over completed jobs. A cluster job's clock starts at
  // its cluster arrival, so steal transfers count toward its queue wait.
  LatencySummary QueueWait;
  LatencySummary Service;
  LatencySummary E2e;
  double MakespanMs = 0; // Last response time (first arrival is ~0).

  // SLO verdict (when an SLO was given); binds to end-to-end latency.
  bool SloChecked = false;
  double SloMs = 0;
  uint64_t SloViolations = 0; // Completed jobs with e2e > SloMs.

  // Functional-mode validation.
  bool Validated = false;
  uint64_t ValidationFailures = 0;

  // fcl::check / fcl::race outcome (--check / --races). The JSON emits the
  // "check"/"races" objects only when diagnostics exist, so a clean
  // analyzed run serializes to the exact bytes of an unanalyzed one (the
  // determinism gates rely on this).
  bool CheckEnabled = false;
  uint64_t CheckErrors = 0;
  uint64_t CheckWarnings = 0;
  std::vector<std::string> CheckDiags; // Rendered, deterministic order.
  bool RacesEnabled = false;
  uint64_t RaceFindings = 0;
  std::vector<std::string> RaceDiags; // Rendered, deterministic order.

  /// Counter/gauge mirror of the numbers above (the fcl::stats view).
  stats::Registry Stats;

  // The shared JSON blocks, in document order: "policy" .. "horizon_ms";
  // "submitted" .. "completed"; "latency_ms"; "slo" and "validation";
  // "check", "races" and "stats".
  void writeEchoJson(JsonWriter &W) const;
  void writeCountsJson(JsonWriter &W) const;
  void writeLatencyJson(JsonWriter &W) const;
  void writeVerdictsJson(JsonWriter &W) const;
  void writeAnalysisJson(JsonWriter &W) const;

  // The shared text blocks: the latency table, then the SLO, validation,
  // check and race lines (with every diagnostic).
  void appendLatencyText(std::string &T) const;
  void appendVerdictsText(std::string &T) const;
};

/// Aggregate outcome of one serve run.
struct ServeReport : ReportCore {
  LatencySummary SmallE2e; // Completed small-class requests only.
  LatencySummary LargeE2e; // Completed large-class requests only.
  uint64_t SmallCompleted = 0;
  uint64_t LargeCompleted = 0;

  // Whole-run aggregates.
  double ThroughputRps = 0;   // Completed / makespan.
  double GpuBusyMs = 0;       // Device lease occupancy.
  double CpuBusyMs = 0;       // Lease + cooperative-CPU busy time.
  double CorunCpuMs = 0;      // Cooperative-CPU share of CpuBusyMs.
  double GpuUtil = 0;
  double CpuUtil = 0;
  uint64_t CoopJobs = 0;      // Jobs run cooperatively across the pair.
  uint64_t GpuJobs = 0;       // Single-device GPU jobs.
  uint64_t CpuJobs = 0;       // Single-device CPU jobs (incl. backfills).
  uint64_t BackfillJobs = 0;  // CPU jobs slotted into corun yield windows.
  uint64_t ChunkYields = 0;   // Cooperative chunk boundaries observed.

  // Compound (DAG) job accounting, mirrored from dag::DagStats so this
  // header does not depend on the dag layer. The JSON emits the "dag"
  // object only when DAG jobs ran: plain mixes serialize to the exact
  // bytes they did before the dag subsystem existed.
  std::string DagPlacement;   // "residency" or "blind"; empty when unused.
  uint64_t DagJobs = 0;
  uint64_t DagNodes = 0;
  uint64_t DagGpuNodes = 0;
  uint64_t DagCpuNodes = 0;
  uint64_t DagTransfers = 0;
  uint64_t DagTransferBytes = 0;
  uint64_t DagPcieBytes = 0;
  uint64_t DagTransfersSkipped = 0;
  uint64_t DagBytesSaved = 0;

  /// Every request in submission order (rejected ones included).
  std::vector<RequestRecord> Requests;

  /// Deterministic JSON document (schema "fcl-serve-report-v1").
  std::string toJson() const;

  /// Human-readable report for the tool's stdout.
  std::string toText() const;

  /// Per-request CSV (header + one row per request).
  std::string toCsv() const;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_METRICS_H

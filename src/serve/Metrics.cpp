//===- serve/Metrics.cpp - Request-level serving metrics ------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Metrics.h"

#include "support/Format.h"
#include "support/Statistics.h"

using namespace fcl;
using namespace fcl::serve;

LatencySummary fcl::serve::summarizeLatency(
    const std::vector<double> &ValuesMs) {
  LatencySummary S;
  if (ValuesMs.empty())
    return S;
  std::vector<double> P = percentiles(ValuesMs, {50, 95, 99, 100});
  S.P50 = P[0];
  S.P95 = P[1];
  S.P99 = P[2];
  S.Mean = mean(ValuesMs);
  S.Max = P[3];
  return S;
}

namespace {

/// One "  <name> p50 ... max ..." row of a text latency table.
std::string latencyRow(const char *Name, const LatencySummary &S) {
  return formatString(
      "  %-11s p50 %9.3f  p95 %9.3f  p99 %9.3f  mean %9.3f  max %9.3f\n",
      Name, S.P50, S.P95, S.P99, S.Mean, S.Max);
}

} // namespace

void fcl::serve::writeLatency(JsonWriter &W, std::string_view Key,
                              const LatencySummary &S) {
  W.object(Key, JsonWriter::Inline)
      .num("p50", ReportFloat, S.P50)
      .num("p95", ReportFloat, S.P95)
      .num("p99", ReportFloat, S.P99)
      .num("mean", ReportFloat, S.Mean)
      .num("max", ReportFloat, S.Max)
      .end();
}

void ReportCore::writeEchoJson(JsonWriter &W) const {
  W.str("policy", PolicyName)
      .str("arrival", ArrivalDesc)
      .str("mix", Mix)
      .str("machine", Machine)
      .num("seed", Seed)
      .num("streams", Streams)
      .num("queue_depth", QueueDepth)
      .num("large_threshold_groups", LargeThreshold)
      .num("horizon_ms", ReportFloat, HorizonMs);
}

void ReportCore::writeCountsJson(JsonWriter &W) const {
  W.num("submitted", Submitted)
      .num("rejected", Rejected)
      .num("completed", Completed);
}

void ReportCore::writeLatencyJson(JsonWriter &W) const {
  W.object("latency_ms");
  writeLatency(W, "queue_wait", QueueWait);
  writeLatency(W, "service", Service);
  writeLatency(W, "e2e", E2e);
  W.end();
}

void ReportCore::writeVerdictsJson(JsonWriter &W) const {
  W.object("slo")
      .boolean("checked", SloChecked)
      .num("slo_ms", ReportFloat, SloMs)
      .num("violations", SloViolations)
      .end();
  W.object("validation")
      .boolean("validated", Validated)
      .num("failures", ValidationFailures)
      .end();
}

void ReportCore::writeAnalysisJson(JsonWriter &W) const {
  auto Diags = [&W](const std::vector<std::string> &Lines) {
    W.array("diags");
    for (const std::string &L : Lines)
      W.str(L);
    W.end();
  };
  // Analysis verdicts appear only when something was found: a clean
  // --check/--races run must serialize to the same bytes as a plain run.
  if (!CheckDiags.empty()) {
    W.object("check")
        .num("errors", CheckErrors)
        .num("warnings", CheckWarnings);
    Diags(CheckDiags);
    W.end();
  }
  if (!RaceDiags.empty()) {
    W.object("races").num("findings", RaceFindings);
    Diags(RaceDiags);
    W.end();
  }
  // The fcl::stats mirror: std::map iteration gives lexicographic, i.e.
  // deterministic, key order.
  W.object("stats").object("counters");
  for (const auto &[Name, Value] : Stats.counters())
    W.num(Name, Value);
  W.end().object("gauges");
  for (const auto &[Name, Value] : Stats.gauges())
    W.num(Name, ReportFloat, Value);
  W.end().end();
}

void ReportCore::appendLatencyText(std::string &T) const {
  T += "latency (ms):\n";
  T += latencyRow("queue-wait", QueueWait);
  T += latencyRow("service", Service);
  T += latencyRow("e2e", E2e);
}

void ReportCore::appendVerdictsText(std::string &T) const {
  if (SloChecked)
    T += formatString("slo: %.3f ms -> %llu violation(s)\n", SloMs,
                      static_cast<unsigned long long>(SloViolations));
  if (Validated)
    T += formatString("validation: %llu failure(s)\n",
                      static_cast<unsigned long long>(ValidationFailures));
  if (CheckEnabled) {
    T += formatString("check: %llu error(s), %llu warning(s)\n",
                      static_cast<unsigned long long>(CheckErrors),
                      static_cast<unsigned long long>(CheckWarnings));
    for (const std::string &D : CheckDiags)
      T += "  " + D + "\n";
  }
  if (RacesEnabled) {
    T += formatString("races: %llu finding(s)\n",
                      static_cast<unsigned long long>(RaceFindings));
    for (const std::string &D : RaceDiags)
      T += "  " + D + "\n";
  }
}

std::string ServeReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.object().str("schema", "fcl-serve-report-v1");
  writeEchoJson(W);
  writeCountsJson(W);
  writeLatencyJson(W);
  W.object("per_class");
  W.object("small", JsonWriter::Inline).num("completed", SmallCompleted);
  writeLatency(W, "e2e", SmallE2e);
  W.end().object("large", JsonWriter::Inline).num("completed", LargeCompleted);
  writeLatency(W, "e2e", LargeE2e);
  W.end().end();
  W.num("makespan_ms", ReportFloat, MakespanMs)
      .num("throughput_rps", ReportFloat, ThroughputRps);
  W.object("occupancy")
      .num("gpu_busy_ms", ReportFloat, GpuBusyMs)
      .num("cpu_busy_ms", ReportFloat, CpuBusyMs)
      .num("corun_cpu_ms", ReportFloat, CorunCpuMs)
      .num("gpu_util", ReportFloat, GpuUtil)
      .num("cpu_util", ReportFloat, CpuUtil)
      .end();
  W.object("placement")
      .num("coop_jobs", CoopJobs)
      .num("gpu_jobs", GpuJobs)
      .num("cpu_jobs", CpuJobs)
      .num("backfill_jobs", BackfillJobs)
      .num("chunk_yields", ChunkYields)
      .end();
  writeVerdictsJson(W);
  // Compound-job accounting only when DAG jobs ran: plain mixes keep their
  // pre-dag bytes.
  if (DagJobs)
    W.object("dag")
        .str("placement", DagPlacement)
        .num("jobs", DagJobs)
        .num("nodes", DagNodes)
        .num("gpu_nodes", DagGpuNodes)
        .num("cpu_nodes", DagCpuNodes)
        .num("transfers", DagTransfers)
        .num("transfer_bytes", DagTransferBytes)
        .num("pcie_bytes", DagPcieBytes)
        .num("transfers_skipped", DagTransfersSkipped)
        .num("bytes_saved", DagBytesSaved)
        .end();
  writeAnalysisJson(W);
  W.end();
  return Out;
}

std::string ServeReport::toText() const {
  std::string T;
  T += formatString("serve: policy=%s arrival=%s mix=%s machine=%s seed=%llu "
                    "streams=%d\n",
                    PolicyName.c_str(), ArrivalDesc.c_str(), Mix.c_str(),
                    Machine.c_str(), static_cast<unsigned long long>(Seed),
                    Streams);
  T += formatString(
      "requests: submitted=%llu rejected=%llu completed=%llu\n",
      static_cast<unsigned long long>(Submitted),
      static_cast<unsigned long long>(Rejected),
      static_cast<unsigned long long>(Completed));
  T += formatString("makespan %.3f ms, throughput %.1f req/s\n", MakespanMs,
                    ThroughputRps);
  appendLatencyText(T);
  if (SmallCompleted)
    T += latencyRow("e2e/small", SmallE2e);
  if (LargeCompleted)
    T += latencyRow("e2e/large", LargeE2e);
  T += formatString("occupancy: gpu %.1f%% cpu %.1f%% (corun-cpu %.3f ms)\n",
                    GpuUtil * 100, CpuUtil * 100, CorunCpuMs);
  T += formatString(
      "placement: coop=%llu gpu=%llu cpu=%llu backfill=%llu yields=%llu\n",
      static_cast<unsigned long long>(CoopJobs),
      static_cast<unsigned long long>(GpuJobs),
      static_cast<unsigned long long>(CpuJobs),
      static_cast<unsigned long long>(BackfillJobs),
      static_cast<unsigned long long>(ChunkYields));
  if (DagJobs) {
    T += formatString(
        "dag (%s): jobs=%llu nodes=%llu (gpu %llu / cpu %llu)\n",
        DagPlacement.c_str(), static_cast<unsigned long long>(DagJobs),
        static_cast<unsigned long long>(DagNodes),
        static_cast<unsigned long long>(DagGpuNodes),
        static_cast<unsigned long long>(DagCpuNodes));
    T += formatString(
        "dag transfers: %llu (%llu bytes, %llu pcie), skipped %llu "
        "(%llu bytes saved)\n",
        static_cast<unsigned long long>(DagTransfers),
        static_cast<unsigned long long>(DagTransferBytes),
        static_cast<unsigned long long>(DagPcieBytes),
        static_cast<unsigned long long>(DagTransfersSkipped),
        static_cast<unsigned long long>(DagBytesSaved));
  }
  appendVerdictsText(T);
  return T;
}

std::string ServeReport::toCsv() const {
  std::string C = "id,stream,workload,max_groups,class,state,placement,"
                  "arrival_ms,queue_wait_ms,service_ms,e2e_ms\n";
  for (const RequestRecord &R : Requests) {
    if (R.Rejected) {
      C += formatString("%llu,%d,%s,%llu,%s,rejected,,%.6f,,,\n",
                        static_cast<unsigned long long>(R.Id), R.Stream,
                        R.Workload.c_str(),
                        static_cast<unsigned long long>(R.MaxGroups),
                        R.Large ? "large" : "small",
                        (R.ArrivalAt - TimePoint()).toMillis());
      continue;
    }
    C += formatString("%llu,%d,%s,%llu,%s,done,%s,%.6f,%.6f,%.6f,%.6f\n",
                      static_cast<unsigned long long>(R.Id), R.Stream,
                      R.Workload.c_str(),
                      static_cast<unsigned long long>(R.MaxGroups),
                      R.Large ? "large" : "small", R.Placement.c_str(),
                      (R.ArrivalAt - TimePoint()).toMillis(),
                      R.queueWaitMs(), R.serviceMs(), R.e2eMs());
  }
  return C;
}

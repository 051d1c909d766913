//===- cluster/Report.cpp - Cluster-level serving metrics -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Report.h"

#include "support/Format.h"

using namespace fcl;
using namespace fcl::cluster;

using serve::ReportFloat;

std::string ClusterReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.object()
      .str("schema", "fcl-cluster-report-v1")
      .num("workers", Workers)
      .str("placement", PlacementName)
      .boolean("steal", Steal);
  writeEchoJson(W);
  W.num("quantum_ms", ReportFloat, QuantumMs)
      .num("link_latency_us", ReportFloat, LinkLatencyUs);
  writeCountsJson(W);
  W.num("stolen", Stolen);
  writeLatencyJson(W);
  W.num("makespan_ms", ReportFloat, MakespanMs)
      .num("throughput_jps", ReportFloat, ThroughputJps);
  W.object("fabric")
      .num("epochs", Epochs)
      .num("messages", Messages)
      .num("steals", Steals)
      .num("rebalance_epochs", RebalanceEpochs)
      .end();
  W.array("per_worker");
  for (const WorkerSummary &S : PerWorker) {
    W.object(JsonWriter::Inline)
        .num("worker", S.Index)
        .num("assigned", S.Assigned)
        .num("completed", S.Completed)
        .num("rejected", S.Rejected)
        .num("stolen_in", S.StolenIn)
        .num("stolen_out", S.StolenOut)
        .num("gpu_busy_ms", ReportFloat, S.GpuBusyMs)
        .num("cpu_busy_ms", ReportFloat, S.CpuBusyMs)
        .num("gpu_util", ReportFloat, S.GpuUtil)
        .num("cpu_util", ReportFloat, S.CpuUtil);
    serve::writeLatency(W, "e2e", S.E2e);
    W.end();
  }
  W.end();
  writeVerdictsJson(W);
  writeAnalysisJson(W);
  W.end();
  return Out;
}

std::string ClusterReport::toText() const {
  std::string T;
  T += formatString("cluster: workers=%d placement=%s steal=%s policy=%s "
                    "arrival=%s mix=%s machine=%s seed=%llu streams=%d\n",
                    Workers, PlacementName.c_str(), Steal ? "on" : "off",
                    PolicyName.c_str(), ArrivalDesc.c_str(), Mix.c_str(),
                    Machine.c_str(), static_cast<unsigned long long>(Seed),
                    Streams);
  T += formatString(
      "jobs: submitted=%llu rejected=%llu completed=%llu stolen=%llu\n",
      static_cast<unsigned long long>(Submitted),
      static_cast<unsigned long long>(Rejected),
      static_cast<unsigned long long>(Completed),
      static_cast<unsigned long long>(Stolen));
  T += formatString("makespan %.3f ms, throughput %.1f jobs/s\n", MakespanMs,
                    ThroughputJps);
  appendLatencyText(T);
  T += formatString(
      "fabric: epochs=%llu messages=%llu steals=%llu rebalance-epochs=%llu\n",
      static_cast<unsigned long long>(Epochs),
      static_cast<unsigned long long>(Messages),
      static_cast<unsigned long long>(Steals),
      static_cast<unsigned long long>(RebalanceEpochs));
  for (const WorkerSummary &W : PerWorker)
    T += formatString("  w%-2d assigned=%-5llu completed=%-5llu "
                      "stolen-in=%-3llu stolen-out=%-3llu gpu %5.1f%% "
                      "cpu %5.1f%%\n",
                      W.Index, static_cast<unsigned long long>(W.Assigned),
                      static_cast<unsigned long long>(W.Completed),
                      static_cast<unsigned long long>(W.StolenIn),
                      static_cast<unsigned long long>(W.StolenOut),
                      W.GpuUtil * 100, W.CpuUtil * 100);
  appendVerdictsText(T);
  return T;
}

std::string ClusterReport::toCsv() const {
  std::string C = "id,stream,workload,max_groups,large,first_worker,worker,"
                  "stolen,rejected,arrival_ms,start_ms,end_ms,queue_wait_ms,"
                  "service_ms,e2e_ms\n";
  for (const ClusterJobRecord &R : Jobs) {
    if (R.Rejected) {
      C += formatString("%llu,%d,%s,%llu,%d,%d,%d,%d,1,%.6f,,,,,\n",
                        static_cast<unsigned long long>(R.Id), R.Stream,
                        R.Workload.c_str(),
                        static_cast<unsigned long long>(R.MaxGroups),
                        R.Large ? 1 : 0, R.FirstWorker, R.Worker,
                        R.Stolen ? 1 : 0, R.ArrivalAt.nanos() * 1e-6);
      continue;
    }
    C += formatString(
        "%llu,%d,%s,%llu,%d,%d,%d,%d,0,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
        static_cast<unsigned long long>(R.Id), R.Stream, R.Workload.c_str(),
        static_cast<unsigned long long>(R.MaxGroups), R.Large ? 1 : 0,
        R.FirstWorker, R.Worker, R.Stolen ? 1 : 0, R.ArrivalAt.nanos() * 1e-6,
        R.StartAt.nanos() * 1e-6, R.EndAt.nanos() * 1e-6, R.queueWaitMs(),
        R.serviceMs(), R.e2eMs());
  }
  return C;
}

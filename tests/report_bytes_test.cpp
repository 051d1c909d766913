//===- tests/report_bytes_test.cpp - Pinned report bytes ------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Renders hand-filled serve, cluster and run reports and compares
// every byte with the documents kept in tests/golden/. Each report comes
// in a "full" flavour (non-empty stats registry, DAG block, check and race
// diagnostics holding a quote, a backslash, a tab and a 0x01 byte) and an
// "empty" flavour (empty registry, no optional blocks). Clean tool runs
// never write the check/races blocks, so this is the only gate that pins
// their shape. cluster_full.txt is the only file that is not the older
// emitters' output verbatim: the cluster text now also lists each check
// and race diagnostic, as the serve text always has.
//
//===----------------------------------------------------------------------===//

#include "cluster/Report.h"
#include "serve/Metrics.h"
#include "stats/Report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fcl;

namespace {

const char *const OddDiag = "error: \"q\" at C:\\tmp\tcol\x01 end";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

void expectGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(FCL_GOLDEN_DIR) + "/" + Name;
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty()) << "missing golden file " << Path;
  EXPECT_EQ(Expected, Actual) << "bytes differ from " << Path;
}

serve::LatencySummary lat(double Base) {
  return {Base, Base * 2, Base * 3, Base * 1.5, Base * 4};
}

void fillRegistry(stats::Registry &R) {
  R.add("b_counter", 7);
  R.add("a_counter", 3);
  R.add("odd\"key", 1);
  R.set("z_gauge", 0.125);
  R.set("a_gauge", 1.0 / 3.0);
}

serve::ServeReport serveReport(bool Full) {
  serve::ServeReport R;
  R.PolicyName = "corun";
  R.ArrivalDesc = "poisson:400";
  R.Mix = Full ? "pipeline" : "mixed";
  R.Machine = "paper";
  R.Seed = 7;
  R.Streams = 8;
  R.QueueDepth = 64;
  R.LargeThreshold = 64;
  R.HorizonMs = 100;
  if (!Full)
    return R;
  R.Submitted = 12;
  R.Rejected = 2;
  R.Completed = 10;
  R.QueueWait = lat(0.125);
  R.Service = lat(1.25);
  R.E2e = lat(1.5);
  R.SmallE2e = lat(0.75);
  R.LargeE2e = lat(2.5);
  R.SmallCompleted = 6;
  R.LargeCompleted = 4;
  R.MakespanMs = 12.5;
  R.ThroughputRps = 800;
  R.GpuBusyMs = 10.25;
  R.CpuBusyMs = 8.5;
  R.CorunCpuMs = 1.75;
  R.GpuUtil = 0.82;
  R.CpuUtil = 0.68;
  R.CoopJobs = 3;
  R.GpuJobs = 4;
  R.CpuJobs = 2;
  R.BackfillJobs = 1;
  R.ChunkYields = 17;
  R.SloChecked = true;
  R.SloMs = 1.5;
  R.SloViolations = 4;
  R.Validated = true;
  R.ValidationFailures = 1;
  R.DagPlacement = "residency";
  R.DagJobs = 1;
  R.DagNodes = 3;
  R.DagGpuNodes = 2;
  R.DagCpuNodes = 1;
  R.DagTransfers = 2;
  R.DagTransferBytes = 4096;
  R.DagPcieBytes = 2048;
  R.DagTransfersSkipped = 1;
  R.DagBytesSaved = 1024;
  R.CheckEnabled = true;
  R.CheckErrors = 1;
  R.CheckWarnings = 1;
  R.CheckDiags = {OddDiag, "warning: plain"};
  R.RacesEnabled = true;
  R.RaceFindings = 1;
  R.RaceDiags = {OddDiag};
  fillRegistry(R.Stats);
  serve::RequestRecord Done;
  Done.Id = 0;
  Done.Stream = 1;
  Done.Workload = "GEMM";
  Done.MaxGroups = 256;
  Done.Large = true;
  Done.Placement = "pair";
  Done.ArrivalAt = TimePoint() + Duration::microseconds(250);
  Done.StartAt = TimePoint() + Duration::microseconds(400);
  Done.EndAt = TimePoint() + Duration::microseconds(1900);
  serve::RequestRecord Shed;
  Shed.Id = 1;
  Shed.Stream = 2;
  Shed.Workload = "ATAX";
  Shed.MaxGroups = 8;
  Shed.Rejected = true;
  Shed.Placement = "rejected";
  Shed.ArrivalAt = TimePoint() + Duration::microseconds(300);
  R.Requests = {Done, Shed};
  return R;
}

cluster::ClusterReport clusterReport(bool Full) {
  cluster::ClusterReport R;
  R.Workers = Full ? 2 : 1;
  R.PlacementName = "least";
  R.Steal = Full;
  R.PolicyName = "fifo";
  R.ArrivalDesc = "uniform:200";
  R.Mix = "mixed";
  R.Machine = "paper";
  R.Seed = 3;
  R.Streams = 4;
  R.QueueDepth = 32;
  R.LargeThreshold = 128;
  R.HorizonMs = 50;
  R.QuantumMs = 1;
  R.LinkLatencyUs = 20;
  if (!Full)
    return R;
  R.Submitted = 9;
  R.Rejected = 1;
  R.Completed = 8;
  R.Stolen = 2;
  R.QueueWait = lat(0.25);
  R.Service = lat(2);
  R.E2e = lat(2.25);
  R.MakespanMs = 40;
  R.ThroughputJps = 200;
  R.Epochs = 41;
  R.Messages = 19;
  R.Steals = 2;
  R.RebalanceEpochs = 1;
  for (int I = 0; I < 2; ++I) {
    cluster::WorkerSummary W;
    W.Index = I;
    W.Assigned = 5 - I;
    W.Completed = 4;
    W.Rejected = I;
    W.StolenIn = I * 2;
    W.StolenOut = 2 - I * 2;
    W.GpuBusyMs = 30 + I;
    W.CpuBusyMs = 20 - I;
    W.GpuUtil = 0.75;
    W.CpuUtil = 0.5;
    W.E2e = lat(2 + I);
    R.PerWorker.push_back(W);
  }
  R.SloChecked = true;
  R.SloMs = 3;
  R.SloViolations = 2;
  R.Validated = true;
  R.ValidationFailures = 0;
  R.CheckEnabled = true;
  R.CheckErrors = 0;
  R.CheckWarnings = 1;
  R.CheckDiags = {std::string("w1: ") + OddDiag};
  R.RacesEnabled = true;
  R.RaceFindings = 2;
  R.RaceDiags = {OddDiag, "race: second"};
  fillRegistry(R.Stats);
  cluster::ClusterJobRecord Done;
  Done.Id = 0;
  Done.Stream = 3;
  Done.Workload = "SYRK";
  Done.MaxGroups = 64;
  Done.Large = true;
  Done.FirstWorker = 0;
  Done.Worker = 1;
  Done.Stolen = true;
  Done.Done = true;
  Done.ArrivalAt = TimePoint() + Duration::microseconds(100);
  Done.StartAt = TimePoint() + Duration::microseconds(1120);
  Done.EndAt = TimePoint() + Duration::microseconds(4000);
  cluster::ClusterJobRecord Shed;
  Shed.Id = 1;
  Shed.Stream = 0;
  Shed.Workload = "BICG";
  Shed.MaxGroups = 4;
  Shed.FirstWorker = 1;
  Shed.Worker = 1;
  Shed.Rejected = true;
  Shed.ArrivalAt = TimePoint() + Duration::microseconds(150);
  R.Jobs = {Done, Shed};
  return R;
}

stats::RunReport runReport(bool Full) {
  stats::RunReport R;
  R.RuntimeName = Full ? "fluidicl" : "gpu";
  R.WorkloadName = "SYR2K";
  R.Wall = Duration::microseconds(1234567);
  if (!Full)
    return R;
  fillRegistry(R.Counters);
  R.Utilization = {{"GPU", Duration::microseconds(900000), 0.729},
                   {"CPU \"host\"", Duration::microseconds(450000), 0.3645}};
  stats::LaunchStats L;
  L.KernelName = "syr2k_kernel";
  L.CpuKernelUsed = "syr2k_kernel_cpu";
  L.KernelId = 4;
  L.TotalGroups = 1024;
  L.CpuGroupsExecuted = 300;
  L.GpuGroupsExecuted = 760;
  L.GpuGroupsCompleted = 724;
  L.CpuGroupsCompleted = 300;
  L.GpuGroupsAborted = 264;
  L.GpuGroupsWasted = 36;
  L.CpuGroupsWasted = 12;
  L.CpuSubkernels = 5;
  L.FinalChunkPct = 12.5;
  L.ChunkGrowthSteps = 2;
  L.CpuRanEverything = false;
  L.AtomicsFallback = true;
  L.HdBytesSent = 65536;
  L.StatusBytesSent = 20;
  L.DhBytesReceived = 131072;
  L.MergeBytesDiffed = 4096;
  L.MergeBytesCopied = 1024;
  L.KernelTime = Duration::microseconds(987654);
  L.ChunkTrajectory = {
      {TimePoint() + Duration::microseconds(1500), 10, 6.25,
       Duration::microseconds(1200)},
      {TimePoint() + Duration::microseconds(3100), 20, 12.5,
       Duration::microseconds(1600)}};
  stats::LaunchStats Bare;
  Bare.KernelName = "bare";
  Bare.CpuRanEverything = true;
  R.Launches = {L, Bare};
  return R;
}

} // namespace

TEST(ReportBytesTest, ServeReportMatchesGolden) {
  serve::ServeReport Full = serveReport(true);
  expectGolden("serve_full.json", Full.toJson());
  expectGolden("serve_full.csv", Full.toCsv());
  expectGolden("serve_full.txt", Full.toText());
  serve::ServeReport Empty = serveReport(false);
  expectGolden("serve_empty.json", Empty.toJson());
  expectGolden("serve_empty.csv", Empty.toCsv());
}

TEST(ReportBytesTest, ClusterReportMatchesGolden) {
  cluster::ClusterReport Full = clusterReport(true);
  expectGolden("cluster_full.json", Full.toJson());
  expectGolden("cluster_full.csv", Full.toCsv());
  expectGolden("cluster_full.txt", Full.toText());
  cluster::ClusterReport Empty = clusterReport(false);
  expectGolden("cluster_empty.json", Empty.toJson());
  expectGolden("cluster_empty.csv", Empty.toCsv());
}

TEST(ReportBytesTest, RunReportsMatchGolden) {
  stats::RunReport Full = runReport(true);
  stats::RunReport Empty = runReport(false);
  expectGolden("run_full.json", Full.renderJson());
  expectGolden("run_empty.json", Empty.renderJson());
  // The report-set wrapper embeds whole report documents.
  std::string Path = ::testing::TempDir() + "report_bytes_set.json";
  ASSERT_TRUE(stats::writeReportsJson({Full, Empty}, Path));
  expectGolden("run_set.json", readFile(Path));
}

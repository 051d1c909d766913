//===- stats/Report.cpp - Structured run reports --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stats/Report.h"

#include "prof/Profiler.h"
#include "support/Format.h"
#include "support/Json.h"
#include "trace/Tracer.h"

#include <cstdio>

using namespace fcl;
using namespace fcl::stats;

namespace {

uint64_t sumOver(const std::vector<LaunchStats> &Launches,
                 uint64_t LaunchStats::*Field) {
  uint64_t Sum = 0;
  for (const LaunchStats &L : Launches)
    Sum += L.*Field;
  return Sum;
}

std::string u64(uint64_t V) {
  return formatString("%llu", static_cast<unsigned long long>(V));
}

void writeRun(JsonWriter &W, const RunReport &R) {
  FCL_PROF_SCOPE("stats.render_json");
  W.object()
      .str("schema", "fcl-run-report-v1")
      .str("runtime", R.RuntimeName)
      .str("workload", R.WorkloadName)
      .num("wall_seconds", "%.9f", R.Wall.toSeconds())
      .num("total_workgroups", R.totalWorkGroups())
      .num("gpu_workgroups_completed", R.gpuWorkGroupsCompleted())
      .num("cpu_workgroups_completed", R.cpuWorkGroupsCompleted())
      .num("gpu_workgroups_executed", R.gpuWorkGroupsExecuted())
      .num("cpu_workgroups_executed", R.cpuWorkGroupsExecuted())
      .num("gpu_workgroups_aborted", R.gpuWorkGroupsAborted())
      .num("gpu_workgroups_wasted", R.gpuWorkGroupsWasted())
      .num("cpu_workgroups_wasted", R.cpuWorkGroupsWasted());
  W.object("counters");
  for (const auto &[Name, Value] : R.Counters.counters())
    W.num(Name, Value);
  W.end().object("gauges");
  for (const auto &[Name, Value] : R.Counters.gauges())
    W.num(Name, "%.9g", Value);
  W.end().array("device_utilization");
  for (const LaneUtilization &U : R.Utilization)
    W.object(JsonWriter::Inline)
        .str("lane", U.Lane)
        .num("busy_seconds", "%.9f", U.Busy.toSeconds())
        .num("utilization", "%.6f", U.Utilization)
        .end();
  W.end().array("launches");
  for (const LaunchStats &L : R.Launches) {
    W.object()
        .str("kernel", L.KernelName)
        .str("cpu_kernel_used", L.CpuKernelUsed)
        .num("kernel_id", L.KernelId)
        .num("total_workgroups", L.TotalGroups)
        .num("gpu_workgroups_completed", L.GpuGroupsCompleted)
        .num("cpu_workgroups_completed", L.CpuGroupsCompleted)
        .num("gpu_workgroups_executed", L.GpuGroupsExecuted)
        .num("cpu_workgroups_executed", L.CpuGroupsExecuted)
        .num("gpu_workgroups_aborted", L.GpuGroupsAborted)
        .num("gpu_workgroups_wasted", L.GpuGroupsWasted)
        .num("cpu_workgroups_wasted", L.CpuGroupsWasted)
        .num("cpu_subkernels", L.CpuSubkernels)
        .num("final_chunk_pct", "%.6f", L.FinalChunkPct)
        .num("chunk_growth_steps", L.ChunkGrowthSteps)
        .boolean("cpu_ran_everything", L.CpuRanEverything)
        .boolean("atomics_fallback", L.AtomicsFallback)
        .num("hd_bytes_sent", L.HdBytesSent)
        .num("status_bytes_sent", L.StatusBytesSent)
        .num("dh_bytes_received", L.DhBytesReceived)
        .num("merge_bytes_diffed", L.MergeBytesDiffed)
        .num("merge_bytes_copied", L.MergeBytesCopied)
        .num("kernel_seconds", "%.9f", L.KernelTime.toSeconds())
        .array("chunk_trajectory");
    for (const ChunkPoint &P : L.ChunkTrajectory)
      W.object(JsonWriter::Inline)
          .num("t_us", "%.3f", static_cast<double>(P.At.nanos()) / 1000.0)
          .num("workgroups", P.Groups)
          .num("pct_after", "%.4f", P.PctAfter)
          .num("subkernel_us", "%.3f",
               static_cast<double>(P.Took.nanos()) / 1000.0)
          .end();
    W.end().end();
  }
  W.end().end();
}

} // namespace

uint64_t RunReport::totalWorkGroups() const {
  return sumOver(Launches, &LaunchStats::TotalGroups);
}
uint64_t RunReport::gpuWorkGroupsCompleted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsCompleted);
}
uint64_t RunReport::cpuWorkGroupsCompleted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsCompleted);
}
uint64_t RunReport::gpuWorkGroupsExecuted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsExecuted);
}
uint64_t RunReport::cpuWorkGroupsExecuted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsExecuted);
}
uint64_t RunReport::gpuWorkGroupsAborted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsAborted);
}
uint64_t RunReport::gpuWorkGroupsWasted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsWasted);
}
uint64_t RunReport::cpuWorkGroupsWasted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsWasted);
}

void RunReport::addUtilizationFromTracer(const trace::Tracer &T,
                                         Duration WallTime) {
  Utilization.clear();
  // Lanes in tid (first-appearance) order, as the trace lists them.
  for (const std::string &Lane : T.lanes()) {
    LaneUtilization U;
    U.Lane = Lane;
    U.Busy = T.laneBusy(Lane);
    U.Utilization = WallTime.nanos() > 0
                        ? static_cast<double>(U.Busy.nanos()) /
                              static_cast<double>(WallTime.nanos())
                        : 0.0;
    Utilization.push_back(std::move(U));
  }
}

std::string RunReport::renderJson() const {
  std::string Out;
  JsonWriter W(Out);
  writeRun(W, *this);
  return Out;
}

std::vector<std::string> RunReport::csvHeader() {
  return {"runtime",
          "workload",
          "kernel",
          "kernel_id",
          "total_workgroups",
          "gpu_workgroups_completed",
          "cpu_workgroups_completed",
          "gpu_workgroups_executed",
          "cpu_workgroups_executed",
          "gpu_workgroups_aborted",
          "gpu_workgroups_wasted",
          "cpu_workgroups_wasted",
          "cpu_subkernels",
          "final_chunk_pct",
          "hd_bytes_sent",
          "status_bytes_sent",
          "dh_bytes_received",
          "merge_bytes_diffed",
          "merge_bytes_copied",
          "kernel_seconds"};
}

void RunReport::appendCsvRows(CsvWriter &Csv) const {
  for (const LaunchStats &L : Launches)
    Csv.addRow({RuntimeName, WorkloadName, L.KernelName, u64(L.KernelId),
                u64(L.TotalGroups), u64(L.GpuGroupsCompleted),
                u64(L.CpuGroupsCompleted), u64(L.GpuGroupsExecuted),
                u64(L.CpuGroupsExecuted), u64(L.GpuGroupsAborted),
                u64(L.GpuGroupsWasted), u64(L.CpuGroupsWasted),
                u64(L.CpuSubkernels), formatString("%.4f", L.FinalChunkPct),
                u64(L.HdBytesSent), u64(L.StatusBytesSent),
                u64(L.DhBytesReceived), u64(L.MergeBytesDiffed),
                u64(L.MergeBytesCopied),
                formatString("%.9f", L.KernelTime.toSeconds())});
}

bool RunReport::writeJson(const std::string &Path) const {
  FCL_PROF_SCOPE("stats.write_json");
  return writeFile(Path, renderJson());
}

void RunReport::printSummary() const {
  std::printf("  stats: %s on %s, wall %.6f s\n", RuntimeName.c_str(),
              WorkloadName.c_str(), Wall.toSeconds());
  if (!Launches.empty()) {
    uint64_t Total = totalWorkGroups();
    auto Pct = [Total](uint64_t V) {
      return Total ? 100.0 * static_cast<double>(V) /
                         static_cast<double>(Total)
                   : 0.0;
    };
    std::printf("    work-groups: %llu total; completed gpu %llu (%.1f%%) / "
                "cpu %llu (%.1f%%); gpu aborted %llu (wasted %llu), cpu "
                "wasted %llu\n",
                static_cast<unsigned long long>(Total),
                static_cast<unsigned long long>(gpuWorkGroupsCompleted()),
                Pct(gpuWorkGroupsCompleted()),
                static_cast<unsigned long long>(cpuWorkGroupsCompleted()),
                Pct(cpuWorkGroupsCompleted()),
                static_cast<unsigned long long>(gpuWorkGroupsAborted()),
                static_cast<unsigned long long>(gpuWorkGroupsWasted()),
                static_cast<unsigned long long>(cpuWorkGroupsWasted()));
  }
  for (const auto &[Name, Value] : Counters.counters())
    std::printf("    %-32s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Value));
  for (const auto &[Name, Value] : Counters.gauges())
    std::printf("    %-32s %.4f\n", Name.c_str(), Value);
  for (const LaneUtilization &U : Utilization)
    std::printf("    util %-22s busy %.6f s (%5.1f%%)\n", U.Lane.c_str(),
                U.Busy.toSeconds(), 100.0 * U.Utilization);
}

bool fcl::stats::writeReportsJson(const std::vector<RunReport> &Reports,
                                  const std::string &Path) {
  std::string Text;
  JsonWriter W(Text);
  if (Reports.size() == 1) {
    writeRun(W, Reports.front());
  } else {
    // Member reports keep the indentation they have on their own.
    W.object()
        .str("schema", "fcl-run-report-set-v1")
        .array("runs", JsonWriter::Flush);
    for (const RunReport &R : Reports)
      writeRun(W, R);
    W.end().end();
  }
  return writeFile(Path, Text);
}

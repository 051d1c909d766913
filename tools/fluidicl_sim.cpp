//===- tools/fluidicl_sim.cpp - Command-line experiment driver -------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Runs any workload under any runtime configuration from the command
/// line - the Swiss-army knife for exploring the reproduction:
///
///   fluidicl_sim --workload=syrk --size=1024 --runtime=all
///   fluidicl_sim --workload=paper --runtime=fluidicl --chunk=5 --step=0
///   fluidicl_sim --workload=bicg --runtime=fluidicl --functional
///   fluidicl_sim --workload=syrk --runtime=fluidicl --cpu-load=4
///   fluidicl_sim --workload=syrk --runtime=fluidicl --trace=out.json
///
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "check/Fixtures.h"
#include "fluidicl/Runtime.h"
#include "prof/Profiler.h"
#include "race/Bridge.h"
#include "support/ArgParser.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/Tracer.h"
#include "work/Driver.h"

#include <cstdio>

using namespace fcl;
using namespace fcl::work;

namespace {

/// Builds the requested workloads.
std::vector<Workload> selectWorkloads(const std::string &Name, int64_t Size) {
  if (Name == "paper")
    return paperSuite();
  if (Name == "extended")
    return extendedSuite();
  auto Sized = [Size](int64_t Default) { return Size > 0 ? Size : Default; };
  if (Name == "atax")
    return {makeAtax(Sized(8192), Sized(8192))};
  if (Name == "bicg")
    return {makeBicg(Sized(4096), Sized(4096))};
  if (Name == "corr")
    return {makeCorr(Sized(2048), Sized(2048))};
  if (Name == "gesummv")
    return {makeGesummv(Sized(4096))};
  if (Name == "syrk")
    return {makeSyrk(Sized(1024), Sized(1024))};
  if (Name == "syr2k")
    return {makeSyr2k(Sized(1536), Sized(1536))};
  if (Name == "mvt")
    return {makeMvt(Sized(4096))};
  if (Name == "gemm")
    return {makeGemm(Sized(1024), Sized(1024), Sized(1024))};
  if (Name == "2mm")
    return {make2mm(Sized(1024))};
  return {};
}

struct ToolConfig {
  RunConfig Run;
  /// --size: 0 keeps each workload's default size.
  int64_t Size = 0;
  std::string TracePath;
  /// --stats / --stats-json / --stats-csv.
  bool PrintStats = false;
  std::string StatsJsonPath;
  std::string StatsCsvPath;

  bool statsWanted() const {
    return PrintStats || !StatsJsonPath.empty() || !StatsCsvPath.empty();
  }

  /// Range rules for the tool's numbers, then FclOpts.validate(): empty
  /// when valid, else a one-line message.
  std::string validate() const {
    // Every Polybench kernel tiles its data in 32x32 work-groups.
    if (Size < 0 || Size % 32 != 0)
      return formatString("--size must be 0 or a positive multiple of 32 "
                          "(got %lld)",
                          static_cast<long long>(Size));
    if (!(Run.GpuFraction >= 0 && Run.GpuFraction <= 1))
      return formatString("--gpu-fraction must be in [0, 1] (got %g)",
                          Run.GpuFraction);
    if (!(Run.M.CpuLoadFactor > 0))
      return formatString("--cpu-load must be > 0 (got %g)",
                          Run.M.CpuLoadFactor);
    if (!(Run.M.GpuLoadFactor > 0))
      return formatString("--gpu-load must be > 0 (got %g)",
                          Run.M.GpuLoadFactor);
    return Run.FclOpts.validate();
  }
};

/// Runs one workload under runtime \p K; returns the result. When stats
/// are requested the run's report is appended to \p Reports.
RunResult runOne(RuntimeKind K, const Workload &W, const ToolConfig &Cfg,
                 bool Validate, std::vector<stats::RunReport> &Reports,
                 bool &CheckFailed) {
  mcl::Context Ctx(Cfg.Run.M, Cfg.Run.Mode);
  trace::Tracer Tracer;
  // Stats need the tracer too: per-device utilization is derived from the
  // recorded lanes.
  bool UseTracer = !Cfg.TracePath.empty() || Cfg.statsWanted();
  if (UseTracer)
    Ctx.setTracer(&Tracer);

  RunResult Res;
  withRuntime(K, Ctx, W, Cfg.Run, [&](runtime::HeteroRuntime &RT) {
    Res = runWorkload(RT, W, Validate);
    if (auto *Fcl = dynamic_cast<fluidicl::Runtime *>(&RT)) {
      const check::DiagSink &Diags = Fcl->diagSink();
      if (Diags.enabled() && !Diags.diags().empty())
        std::printf("%s", Diags.renderAll().c_str());
      if (Diags.shouldFail())
        CheckFailed = true;
      for (const fluidicl::KernelStats &S : Fcl->kernelStats())
        std::printf("    %-22s cpu %6llu / gpu %6llu of %6llu groups, "
                    "%llu subkernels, chunk -> %.0f%%%s\n",
                    S.KernelName.c_str(),
                    static_cast<unsigned long long>(S.CpuGroupsExecuted),
                    static_cast<unsigned long long>(S.GpuGroupsExecuted),
                    static_cast<unsigned long long>(S.TotalGroups),
                    static_cast<unsigned long long>(S.CpuSubkernels),
                    S.FinalChunkPct,
                    S.CpuRanEverything ? " (CPU ran everything)" : "");
    }
    if (Cfg.statsWanted())
      Reports.push_back(collectRunReport(RT, W, Res.Total,
                                         UseTracer ? &Tracer : nullptr));
  });

  if (Cfg.PrintStats && !Reports.empty())
    Reports.back().printSummary();

  if (!Cfg.TracePath.empty()) {
    if (prof::Profiler::instance().enabled())
      Tracer.annotateProfile(prof::Profiler::instance().snapshot());
    if (Tracer.writeChromeTrace(Cfg.TracePath))
      std::printf("    trace written to %s (%zu slices, %zu counter "
                  "samples)\n",
                  Cfg.TracePath.c_str(), Tracer.size(),
                  Tracer.counterSamples().size());
    else
      std::fprintf(stderr, "could not write trace to %s\n",
                   Cfg.TracePath.c_str());
  }
  return Res;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("fluidicl_sim",
                 "run FluidiCL reproduction workloads under any runtime");
  Args.addOption("workload",
                 "atax|bicg|corr|gesummv|syrk|syr2k|mvt|gemm|2mm|paper|"
                 "extended",
                 "paper");
  Args.addOption("size", "problem size override (0 = workload default)",
                 "0");
  Args.addOption("runtime", "cpu|gpu|static|socl-eager|socl-dmda|fluidicl|all",
                 "all");
  Args.addOption("gpu-fraction", "GPU share for --runtime=static", "0.5");
  Args.addOption("chunk", "FluidiCL initial chunk percent", "2");
  Args.addOption("step", "FluidiCL chunk step percent", "2");
  Args.addFlag("no-abort-in-loops", "abort checks only at work-group start");
  Args.addFlag("no-unroll", "disable manual unrolling after abort checks");
  Args.addFlag("no-split", "disable CPU work-group splitting");
  Args.addFlag("no-pool", "disable the GPU buffer pool");
  Args.addFlag("no-location", "disable data-location tracking");
  Args.addFlag("profiling", "enable online kernel-variant profiling");
  Args.addOption("cpu-load", "external CPU slowdown factor", "1");
  Args.addOption("gpu-load", "external GPU slowdown factor", "1");
  Args.addOption("machine",
                 std::string("simulated machine: ") + hw::machineNames(),
                 "paper");
  Args.addFlag("functional", "execute kernels for real and validate");
  Args.addOption("check",
                 "fluidic-safety checking: off|warn|fail (arms the access "
                 "oracle, protocol checker and shim lint)",
                 "off");
  Args.addFlag("check-fixtures",
               "also probe the deliberately misdeclared fixture kernels "
               "(with --check=fail the run exits non-zero)");
  Args.addOption("races",
                 "happens-before race analysis over every run: "
                 "off|warn|fail (never perturbs the simulated results)",
                 "off");
  Args.addOption("trace", "write a Chrome trace JSON to this path", "");
  Args.addFlag("stats", "print per-run counter/utilization summaries");
  Args.addFlag("prof",
               "collect a wall-clock host profile and print the top "
               "self-time phases (never affects the simulated results)");
  Args.addOption("stats-json", "write run reports as JSON to this path", "");
  Args.addOption("stats-csv", "write per-launch stats CSV to this path", "");

  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "%s", Args.errorText().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }

  ToolConfig Cfg;
  RunConfig &Run = Cfg.Run;
  if (!hw::machineByName(Args.str("machine"), Run.M)) {
    std::fprintf(stderr, "error: unknown --machine '%s' (expected %s)\n",
                 Args.str("machine").c_str(), hw::machineNames());
    return 1;
  }
  Run.M.CpuLoadFactor = Args.f64("cpu-load");
  Run.M.GpuLoadFactor = Args.f64("gpu-load");
  Run.Mode = Args.flag("functional") ? mcl::ExecMode::Functional
                                     : mcl::ExecMode::TimingOnly;
  Cfg.Size = Args.i64("size");
  Run.GpuFraction = Args.f64("gpu-fraction");
  Run.FclOpts.InitialChunkPct = Args.f64("chunk");
  Run.FclOpts.StepPct = Args.f64("step");
  if (Args.flag("no-abort-in-loops"))
    Run.FclOpts.AbortPolicy = hw::AbortPolicyKind::AtStart;
  Run.FclOpts.LoopUnroll = !Args.flag("no-unroll");
  Run.FclOpts.CpuWorkGroupSplit = !Args.flag("no-split");
  Run.FclOpts.BufferPool = !Args.flag("no-pool");
  Run.FclOpts.DataLocationTracking = !Args.flag("no-location");
  Run.FclOpts.OnlineProfiling = Args.flag("profiling");
  Cfg.TracePath = Args.str("trace");
  Cfg.PrintStats = Args.flag("stats");
  Cfg.StatsJsonPath = Args.str("stats-json");
  Cfg.StatsCsvPath = Args.str("stats-csv");
  check::Policy CheckPol = check::Policy::Off;
  if (!check::parsePolicy(Args.str("check"), CheckPol)) {
    std::fprintf(stderr, "error: bad --check value '%s' (off|warn|fail)\n",
                 Args.str("check").c_str());
    return 1;
  }
  Run.FclOpts.Check = CheckPol;
  check::Policy RacesPol = check::Policy::Off;
  if (!check::parsePolicy(Args.str("races"), RacesPol)) {
    std::fprintf(stderr, "error: bad --races value '%s' (off|warn|fail)\n",
                 Args.str("races").c_str());
    return 1;
  }
  if (std::string Invalid = Cfg.validate(); !Invalid.empty()) {
    std::fprintf(stderr, "error: %s\n", Invalid.c_str());
    return 1;
  }
  const std::string &Suite = Args.str("workload");
  if (Cfg.Size != 0 && (Suite == "paper" || Suite == "extended")) {
    std::fprintf(stderr,
                 "error: --workload=%s takes no --size (got --size=%lld)\n",
                 Suite.c_str(), static_cast<long long>(Cfg.Size));
    return 1;
  }
  std::vector<NamedRuntime> Runtimes;
  for (const NamedRuntime &R : runtimeKinds())
    if (Args.str("runtime") == "all" || Args.str("runtime") == R.Name)
      Runtimes.push_back(R);
  if (Runtimes.empty()) {
    std::fprintf(stderr,
                 "error: unknown --runtime '%s' (cpu|gpu|static|"
                 "socl-eager|socl-dmda|fluidicl|all)\n",
                 Args.str("runtime").c_str());
    return 1;
  }

  if (Args.flag("prof"))
    prof::Profiler::instance().setEnabled(true);
  race::armAnalyzer(RacesPol);

  std::vector<Workload> Loads = selectWorkloads(Args.str("workload"), Cfg.Size);
  if (Loads.empty()) {
    std::fprintf(stderr,
                 "error: unknown --workload '%s' (atax|bicg|corr|gesummv|"
                 "syrk|syr2k|mvt|gemm|2mm|paper|extended)\n",
                 Args.str("workload").c_str());
    return 1;
  }

  bool Validate = Args.flag("functional");
  bool AnyInvalid = false;
  bool CheckFailed = false;

  // --check: probe every kernel call with the access oracle before the
  // runs (the fluidicl runs additionally arm the protocol checker and the
  // shim lint through Options::Check).
  check::DiagSink OracleSink(CheckPol);
  if (CheckPol != check::Policy::Off) {
    const kern::Registry &Reg = kern::Registry::builtin();
    uint64_t ProbedCalls = 0;
    for (const Workload &W : Loads)
      ProbedCalls += check::checkWorkload(W, OracleSink, Reg);
    if (Args.flag("check-fixtures"))
      for (const check::FixtureCase &Case : check::fixtureCases())
        check::checkWorkload(Case.W, OracleSink, check::fixtureRegistry());
    if (!OracleSink.diags().empty())
      std::printf("%s", OracleSink.renderAll().c_str());
    std::printf("check: %llu calls probed, %llu errors, %llu warnings\n\n",
                static_cast<unsigned long long>(ProbedCalls),
                static_cast<unsigned long long>(OracleSink.errorCount()),
                static_cast<unsigned long long>(OracleSink.warningCount()));
  }

  std::vector<stats::RunReport> Reports;
  for (const Workload &W : Loads) {
    std::printf("== %s - %s\n", W.Name.c_str(), W.Summary.c_str());
    Table T({"runtime", "total (s)", Validate ? "validated" : ""});
    for (const NamedRuntime &R : Runtimes) {
      RunResult Res = runOne(R.Kind, W, Cfg, Validate, Reports, CheckFailed);
      std::string Check;
      if (Res.Validated) {
        Check = Res.Valid ? "ok" : "FAILED";
        if (!Res.Valid)
          AnyInvalid = true;
      }
      T.addRow({R.Name, formatString("%.6f", Res.Total.toSeconds()), Check});
    }
    T.print();
    std::printf("\n");
  }

  if (!Cfg.StatsJsonPath.empty()) {
    if (stats::writeReportsJson(Reports, Cfg.StatsJsonPath))
      std::printf("stats JSON written to %s (%zu runs)\n",
                  Cfg.StatsJsonPath.c_str(), Reports.size());
    else
      std::fprintf(stderr, "could not write stats JSON to %s\n",
                   Cfg.StatsJsonPath.c_str());
  }
  if (!Cfg.StatsCsvPath.empty()) {
    CsvWriter Csv(stats::RunReport::csvHeader());
    for (const stats::RunReport &Rep : Reports)
      Rep.appendCsvRows(Csv);
    if (Csv.writeFile(Cfg.StatsCsvPath))
      std::printf("stats CSV written to %s\n", Cfg.StatsCsvPath.c_str());
    else
      std::fprintf(stderr, "could not write stats CSV to %s\n",
                   Cfg.StatsCsvPath.c_str());
  }
  if (Args.flag("prof")) {
    prof::Profiler::instance().setEnabled(false);
    std::printf(
        "\n%s",
        prof::Profiler::instance().snapshot().renderText(/*TopN=*/10).c_str());
  }
  bool RacesFailed = false;
  if (RacesPol != check::Policy::Off) {
    check::DiagSink RaceSink(check::Policy::Warn);
    size_t N = race::disarmAnalyzer(RaceSink);
    if (N > 0)
      std::printf("%s", RaceSink.renderAll().c_str());
    std::printf("races: %zu finding(s)\n", N);
    RacesFailed = RacesPol == check::Policy::Fail && N > 0;
  }
  if (OracleSink.shouldFail() || CheckFailed)
    std::fprintf(stderr,
                 "check: error diagnostics under --check=fail; exiting "
                 "non-zero\n");
  if (RacesFailed)
    std::fprintf(stderr,
                 "races: findings under --races=fail; exiting non-zero\n");
  return (AnyInvalid || OracleSink.shouldFail() || CheckFailed || RacesFailed)
             ? 1
             : 0;
}

//===- tools/fluidicl_check.cpp - Fluidic-safety sweep ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Sweeps every registered kernel through the fcl::check analyzer and
/// prints the safety report:
///
///   fluidicl_check                 # oracle sweep + cross-runtime runs
///   fluidicl_check --no-runtimes   # oracle sweep only
///   fluidicl_check --fixtures      # analyzer self-test on the seeded
///                                  # misdeclaration fixtures
///   fluidicl_check --races=fail    # also run the happens-before race
///                                  # analyzer over the replay
///   fluidicl_check --race-fixtures # race-analyzer self-test on the
///                                  # seeded concurrency-hazard fixtures
///
/// The default mode probes a coverage suite that launches every built-in
/// kernel (access-footprint verification), then replays the same suite
/// functionally under the CPU-only, GPU-only, static-partition, SOCL-eager
/// and FluidiCL runtimes with protocol checking armed. Exit is non-zero
/// when any error diagnostic, uncovered kernel or failed validation
/// remains.
///
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "check/Fixtures.h"
#include "fluidicl/Runtime.h"
#include "race/Bridge.h"
#include "race/Fixtures.h"
#include "support/ArgParser.h"
#include "work/Driver.h"

#include <cstdio>

using namespace fcl;

namespace {

/// Self-test: every fixture must produce exactly its expected diagnostic
/// kind. Returns the number of mismatches.
int runFixtureSweep() {
  int Mismatches = 0;
  std::printf("analyzer self-test: %zu misdeclaration fixtures\n",
              check::fixtureCases().size());
  for (const check::FixtureCase &Case : check::fixtureCases()) {
    check::DiagSink Sink(check::Policy::Warn);
    check::checkWorkload(Case.W, Sink, check::fixtureRegistry());
    uint64_t Hits = Sink.count(Case.Expected);
    bool Ok = Hits > 0;
    if (!Ok)
      ++Mismatches;
    std::printf("  %-28s expect %-28s %s\n", Case.W.Name.c_str(),
                check::diagKindName(Case.Expected), Ok ? "caught" : "MISSED");
    if (!Ok)
      std::printf("%s", Sink.renderAll().c_str());
  }
  std::printf(Mismatches == 0 ? "all fixtures caught\n"
                              : "%d fixture(s) MISSED\n",
              Mismatches);
  return Mismatches;
}

/// Replays the coverage suite functionally under runtime \p R with \p C;
/// returns the number of failures (failed validation or failing
/// diagnostics).
int runCoverageUnder(const work::NamedRuntime &R, const work::RunConfig &C) {
  int Failures = 0;
  for (const work::Workload &W : check::coverageWorkloads()) {
    // A static partition splits every kernel blindly, which is unsound for
    // atomics kernels (the very hazard the analyzer classifies; FluidiCL
    // handles it with the GPU-only fallback). Skip those combinations.
    if (R.Kind == work::RuntimeKind::Static) {
      bool HasAtomics = false;
      for (const work::KernelCall &Call : W.Calls)
        if (const kern::KernelInfo *Info =
                kern::Registry::builtin().find(Call.Kernel))
          HasAtomics |= Info->UsesAtomics;
      if (HasAtomics) {
        std::printf("  %-10s %-24s skipped (atomics are unsound under "
                    "static partitioning)\n",
                    R.Name, W.Name.c_str());
        continue;
      }
    }
    mcl::Context Ctx(C.M, C.Mode);
    work::RunResult Res;
    bool Failing = false;
    work::withRuntime(R.Kind, Ctx, W, C, [&](runtime::HeteroRuntime &RT) {
      Res = work::runWorkload(RT, W, true);
      if (auto *Fcl = dynamic_cast<fluidicl::Runtime *>(&RT)) {
        if (!Fcl->diagSink().diags().empty())
          std::printf("%s", Fcl->diagSink().renderAll().c_str());
        Failing = Fcl->diagSink().shouldFail();
      }
    });
    if (Failing || (Res.Validated && !Res.Valid)) {
      ++Failures;
      std::printf("  %-10s %-24s FAILED%s\n", R.Name, W.Name.c_str(),
                  Failing ? " (check diagnostics)" : " (validation)");
    }
  }
  std::printf("  %-10s %s\n", R.Name,
              Failures == 0 ? "all workloads clean" : "FAILURES");
  return Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("fluidicl_check",
                 "verify fluidic-safety metadata of every registered kernel");
  Args.addFlag("fixtures", "run the analyzer self-test fixtures instead");
  Args.addFlag("race-fixtures",
               "run the race-analyzer self-test on the seeded "
               "concurrency-hazard fixtures instead");
  Args.addFlag("no-runtimes", "skip the functional cross-runtime replay");
  Args.addOption("races",
                 "happens-before race analysis over the cross-runtime "
                 "replay: off|warn|fail",
                 "off");
  Args.addOption("budget", "oracle probe budget in bytes", "1073741824");
  Args.addOption("machine",
                 std::string("simulated machine: ") + hw::machineNames(),
                 "paper");

  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "%s", Args.errorText().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }

  work::RunConfig Replay; // Static splits at RunConfig's default 50%.
  Replay.Mode = mcl::ExecMode::Functional;
  Replay.FclOpts.Check = check::Policy::Fail;
  if (!hw::machineByName(Args.str("machine"), Replay.M)) {
    std::fprintf(stderr, "error: unknown --machine '%s' (expected %s)\n",
                 Args.str("machine").c_str(), hw::machineNames());
    return 1;
  }
  if (Args.i64("budget") < 1) {
    std::fprintf(stderr, "error: --budget must be >= 1 (got %s)\n",
                 Args.str("budget").c_str());
    return 1;
  }

  if (Args.flag("fixtures"))
    return runFixtureSweep() == 0 ? 0 : 1;
  if (Args.flag("race-fixtures"))
    return race::runFixtureSweep(/*Verbose=*/true) ? 0 : 1;

  check::Policy RacesPol = check::Policy::Off;
  if (!check::parsePolicy(Args.str("races"), RacesPol)) {
    std::fprintf(stderr, "error: bad --races value '%s' (off|warn|fail)\n",
                 Args.str("races").c_str());
    return 1;
  }

  check::DiagSink Sink(check::Policy::Fail);
  std::vector<check::KernelVerdict> Verdicts = check::checkAllKernels(
      Sink, static_cast<uint64_t>(Args.i64("budget")));
  if (!Sink.diags().empty())
    std::printf("%s\n", Sink.renderAll().c_str());
  std::printf("%s", check::renderSafetyReport(Verdicts).c_str());

  bool AnyNotCovered = false;
  for (const check::KernelVerdict &V : Verdicts)
    AnyNotCovered |= !V.Covered;

  int RuntimeFailures = 0;
  if (!Args.flag("no-runtimes")) {
    std::printf("\nfunctional cross-runtime replay:\n");
    race::armAnalyzer(RacesPol);
    // SOCL-dmda places whole tasks like SOCL-eager and would add ten
    // calibration runs per workload.
    for (const work::NamedRuntime &R : work::runtimeKinds())
      if (R.Kind != work::RuntimeKind::SoclDmda)
        RuntimeFailures += runCoverageUnder(R, Replay);
  }

  bool RacesFailed = false;
  if (RacesPol != check::Policy::Off && !Args.flag("no-runtimes")) {
    check::DiagSink RaceSink(check::Policy::Warn);
    size_t N = race::disarmAnalyzer(RaceSink);
    if (N > 0)
      std::printf("%s", RaceSink.renderAll().c_str());
    std::printf("races: %zu finding(s) over the replay\n", N);
    RacesFailed = RacesPol == check::Policy::Fail && N > 0;
  }

  return (Sink.shouldFail() || AnyNotCovered || RuntimeFailures > 0 ||
          RacesFailed)
             ? 1
             : 0;
}

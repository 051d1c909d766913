//===- tools/TierOptions.cpp - Shared serve/cluster command line ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TierOptions.h"

#include "prof/Profiler.h"
#include "support/Format.h"

using namespace fcl;

TierOptions::TierOptions(const char *Tool, const char *Summary,
                         const char *Noun)
    : Args(Tool, Summary), Noun(Noun),
      CsvOption(std::string(Noun) + "s-csv") {
  Args.addOption("streams", "concurrent client streams (cluster-wide)", "8");
  Args.addOption("policy", "dispatch policy per pair: fifo|affine|corun",
                 "corun");
  Args.addOption("arrival",
                 "arrival process per stream: poisson:<rps>|uniform:<rps>|"
                 "closed:<think-ms> (closed loops: serve only)",
                 "poisson:120");
  Args.addOption("duration", "admission window in seconds", "0.25");
  Args.addOption("seed", "load-generator seed", "1");
  Args.addOption("queue-depth",
                 "admission queue bound per pair (backpressure)", "64");
  Args.addOption("threshold",
                 "work-group count at/above which a job is 'large'", "64");
  Args.addOption("mix", "job mix: mixed|small|large|pipeline", "mixed");
  Args.addOption("dag-placement",
                 "compound (DAG) node placement: residency|blind "
                 "(pipeline mix)",
                 "residency");
  Args.addOption("machine",
                 std::string("simulated machine per pair: ") +
                     hw::machineNames(),
                 "paper");
  Args.addOption("slo-ms",
                 "end-to-end SLO in ms; exit 2 on any violation (0 = off)",
                 "0");
  Args.addOption("stats-json", "write the report JSON here", "");
  Args.addOption(CsvOption, "write per-" + this->Noun + " CSV here", "");
  Args.addOption("trace",
                 "write a Chrome/Perfetto trace here (cluster lanes are "
                 "prefixed w0/w1/...)",
                 "");
  Args.addOption("check",
                 "fluidic-safety checking in every cooperative job's "
                 "runtime: off|warn|fail (fail -> exit 4 on error "
                 "diagnostics)",
                 "off");
  Args.addOption("races",
                 "happens-before race analysis over the whole run: "
                 "off|warn|fail (fail -> exit 5 on findings; never "
                 "perturbs the report bytes)",
                 "off");
  Args.addFlag("functional", "execute kernels for real");
  Args.addFlag("prof",
               "collect a wall-clock host profile and print the top "
               "self-time phases (never affects the simulated results)");
  Args.addFlag("validate",
               "validate every job's results (needs --functional)");
}

int TierOptions::usageError(const std::string &Msg) {
  std::fprintf(stderr, "error: %s\n", Msg.c_str());
  return 1;
}

std::optional<int> TierOptions::parse(int Argc, char **Argv,
                                      serve::EngineConfig &Cfg) {
  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "%s", Args.errorText().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }
  Cfg.Streams = static_cast<int>(Args.i64("streams"));
  Cfg.Seed = static_cast<uint64_t>(Args.i64("seed"));
  Cfg.QueueDepth = static_cast<int>(Args.i64("queue-depth"));
  Cfg.LargeThreshold = static_cast<uint64_t>(Args.i64("threshold"));
  Cfg.Horizon = signedSeconds(Args.f64("duration"));
  Cfg.SloMs = Args.f64("slo-ms");
  Cfg.MachineName = Args.str("machine");
  if (!hw::machineByName(Cfg.MachineName, Cfg.M))
    return usageError(formatString("unknown --machine '%s' (expected %s)",
                                   Cfg.MachineName.c_str(),
                                   hw::machineNames()));
  if (!serve::parsePolicy(Args.str("policy"), Cfg.P))
    return usageError(formatString("unknown --policy '%s' (fifo|affine|corun)",
                                   Args.str("policy").c_str()));
  std::string Err;
  if (!serve::parseArrivalSpec(Args.str("arrival"), Cfg.Arrival, Err))
    return usageError(Err);
  if (!serve::parseMix(Args.str("mix"), Cfg.Mix))
    return usageError(
        formatString("unknown --mix '%s' (mixed|small|large|pipeline)",
                     Args.str("mix").c_str()));
  if (!dag::parsePlacement(Args.str("dag-placement"), Cfg.DagPlace))
    return usageError(
        formatString("unknown --dag-placement '%s' (residency|blind)",
                     Args.str("dag-placement").c_str()));
  if (Args.flag("validate") && !Args.flag("functional"))
    return usageError("--validate requires --functional");
  Cfg.Mode = Args.flag("functional") ? mcl::ExecMode::Functional
                                     : mcl::ExecMode::TimingOnly;
  Cfg.Validate = Args.flag("validate");
  if (!check::parsePolicy(Args.str("check"), Cfg.FclOpts.Check))
    return usageError(formatString("bad --check value '%s' (off|warn|fail)",
                                   Args.str("check").c_str()));
  if (!check::parsePolicy(Args.str("races"), Cfg.Races))
    return usageError(formatString("bad --races value '%s' (off|warn|fail)",
                                   Args.str("races").c_str()));
  Check = Cfg.FclOpts.Check;
  Races = Cfg.Races;
  if (!Args.str("trace").empty())
    Cfg.Tracer = &Tracer;
  if (Args.flag("prof"))
    prof::Profiler::instance().setEnabled(true);
  return std::nullopt;
}

void TierOptions::printProfile() {
  if (!Args.flag("prof"))
    return;
  prof::Profiler::instance().setEnabled(false);
  prof::Snapshot Snap = prof::Profiler::instance().snapshot();
  std::printf("\n%s", Snap.renderText(/*TopN=*/10).c_str());
  if (!Args.str("trace").empty())
    Tracer.annotateProfile(Snap);
}

bool TierOptions::written(const std::string &Path, const std::string &Text,
                          const std::string &What) {
  if (!writeFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("%s written to %s\n", What.c_str(), Path.c_str());
  return true;
}

void TierOptions::writeTrace() {
  const std::string &Path = Args.str("trace");
  if (!Path.empty() && Tracer.writeChromeTrace(Path))
    std::printf("trace written to %s\n", Path.c_str());
}

int TierOptions::exitStatus(const serve::ReportCore &R) const {
  if (R.Validated && R.ValidationFailures > 0) {
    std::fprintf(stderr, "FAIL: %llu job(s) produced wrong results\n",
                 static_cast<unsigned long long>(R.ValidationFailures));
    return 3;
  }
  if (R.SloChecked && R.SloViolations > 0) {
    std::fprintf(stderr, "FAIL: %llu %s(s) exceeded the %.3f ms SLO\n",
                 static_cast<unsigned long long>(R.SloViolations),
                 Noun.c_str(), R.SloMs);
    return 2;
  }
  if (Check == check::Policy::Fail && R.CheckErrors > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu check error diagnostic(s) under --check=fail\n",
                 static_cast<unsigned long long>(R.CheckErrors));
    return 4;
  }
  if (Races == check::Policy::Fail && R.RaceFindings > 0) {
    std::fprintf(stderr, "FAIL: %llu race finding(s) under --races=fail\n",
                 static_cast<unsigned long long>(R.RaceFindings));
    return 5;
  }
  return 0;
}

//===- tools/TierOptions.h - Shared serve/cluster command line --*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command line fluidicl_serve and fluidicl_cluster share: the options
/// both take (load, mix, DAG placement, machine, SLO, analysis switches,
/// outputs), their parsing into a serve::EngineConfig, and the end of a
/// run - text report, --prof table, output files and the exit status:
///
///   0 success; 1 usage error or unwritable output; 2 an SLO violation
///   under --slo-ms; 3 validation failures under --functional --validate;
///   4 check error diagnostics under --check=fail; 5 race findings under
///   --races=fail.
///
/// Range rules live in serve::EngineConfig::validate() and
/// cluster::ClusterConfig::validate(); the tools print their verdict.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_TOOLS_TIEROPTIONS_H
#define FCL_TOOLS_TIEROPTIONS_H

#include "serve/Engine.h"
#include "support/ArgParser.h"
#include "trace/Tracer.h"

#include <cstdio>
#include <optional>
#include <string>

namespace fcl {

/// Duration::seconds without its clamp, so validate() sees negative input.
inline Duration signedSeconds(double S) {
  return S < 0 ? Duration::zero() - Duration::seconds(-S)
               : Duration::seconds(S);
}

class TierOptions {
public:
  /// Declares the shared options. \p Noun names one unit of work in
  /// messages ("request" or "job"); the per-unit CSV is "--<Noun>s-csv".
  TierOptions(const char *Tool, const char *Summary, const char *Noun);

  /// Declare the tool's own options here before parse().
  ArgParser &args() { return Args; }

  /// Parses argv and the shared options into \p Cfg, arming the tracer
  /// and profiler they ask for. Returns the exit status when the tool
  /// should stop (--help, or a usage error already printed), else nullopt.
  std::optional<int> parse(int Argc, char **Argv, serve::EngineConfig &Cfg);

  /// Prints "error: <Msg>" as one stderr line; returns the usage status.
  static int usageError(const std::string &Msg);

  /// Narrows int option \p Name into \p Out, or returns the usage status
  /// after an error quoting a value a cast would wrap.
  std::optional<int> intOption(const char *Name, int &Out);

  /// Ends a run: prints \p R and the --prof table, writes the outputs and
  /// returns the exit status.
  template <class Report> int finish(const Report &R) {
    std::printf("%s", R.toText().c_str());
    printProfile();
    const std::string &Json = Args.str("stats-json");
    const std::string &Csv = Args.str(CsvOption);
    if ((!Json.empty() && !written(Json, R.toJson(), "report JSON")) ||
        (!Csv.empty() && !written(Csv, R.toCsv(), Noun + " CSV")))
      return 1;
    writeTrace();
    return exitStatus(R);
  }

private:
  void printProfile();
  /// Writes \p Text to \p Path and says so on stdout; false (after one
  /// stderr line) when the file cannot be written.
  bool written(const std::string &Path, const std::string &Text,
               const std::string &What);
  void writeTrace();
  int exitStatus(const serve::ReportCore &R) const;

  ArgParser Args;
  std::string Noun;
  std::string CsvOption;
  trace::Tracer Tracer;
  check::Policy Check = check::Policy::Off;
  check::Policy Races = check::Policy::Off;
};

} // namespace fcl

#endif // FCL_TOOLS_TIEROPTIONS_H

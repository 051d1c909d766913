//===- perfbench/src/main.cpp - Host speed and simulated outcome ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload for a fixed host-time budget and prints its
/// metrics as one JSON line. perfbench/run.py builds this program, derives
/// the generated configuration from the workload name and the seed, and
/// checks the printed metrics against BENCHMARK.json.
///
///   fcl_perfbench --workload=serve_overload --kind=serve --seeds=123,456
///       --mix=mixed --streams=64 --rate=150 --queue-depth=100000
///       --horizon-s=1 --seconds=20 --trace=0
///
/// Untraced mode (--trace=0) prints the end-to-end metrics. Traced mode
/// (--trace=1) runs each configuration in adjacent pairs with the
/// benchmark's spans and the fcl::prof profiler off and on, and prints the
/// per-layer metrics: span sums, prof self times folded by leaf phase name,
/// the counts the public reports expose, and the profiler's own overhead.
///
/// Every iteration's outputs are checked (job conservation, validation,
/// byte-identical repeats); a failed check makes its jobs count as failed,
/// sets "correct" to false and makes the exit status 3.
///
//===----------------------------------------------------------------------===//

#include "SpanLog.h"
#include "Workloads.h"

#include "prof/BenchReport.h"
#include "prof/Profiler.h"
#include "serve/LoadGen.h"
#include "serve/Metrics.h"
#include "support/ArgParser.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace fcl;
using namespace perfbench;

namespace {

struct MetricDecl {
  const char *Name;
  const char *Unit;
};

// Must match BENCHMARK.json; run.py rejects any difference.
const MetricDecl EndToEnd[] = {
    {"jobs_per_s", "jobs/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},            {"ok_frac", "frac"},
    {"sim_e2e_p50_ms", "sim_ms"},     {"sim_e2e_p99_ms", "sim_ms"},
    {"sim_jobs_per_s", "jobs/sim_s"}, {"sim_speedup_geomean", "x"},
};

const MetricDecl PerLayer[] = {
    {"sim.events", "count"},
    {"sim.tombstone_skips", "count"},
    {"sim.compaction_runs", "count"},
    {"sim.run.self_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"fluidicl.new_s", "s"},
    {"fluidicl.write_s", "s"},
    {"fluidicl.launch_s", "s"},
    {"fluidicl.read_s", "s"},
    {"fcl.launch_setup.self_s", "s"},
    {"fcl.gpu_launch.self_s", "s"},
    {"fcl.chunk_launch.self_s", "s"},
    {"fcl.hd_send.self_s", "s"},
    {"fcl.merge.self_s", "s"},
    {"fcl.dh_read.self_s", "s"},
    {"fluidicl.subkernels", "count"},
    {"fluidicl.gpu_groups_wasted", "count"},
    {"fluidicl.cpu_groups_wasted", "count"},
    {"fluidicl.useful_group_frac", "frac"},
    {"fluidicl.hd_mb", "MB"},
    {"fluidicl.merge_mb", "MB"},
    {"kern.reference_s", "s"},
    {"work.validate_s", "s"},
    {"serve.engine_new_s", "s"},
    {"serve.run_s", "s"},
    {"serve.dispatch.self_s", "s"},
    {"serve.chunk_yield.self_s", "s"},
    {"serve.admission.self_s", "s"},
    {"serve.callback.self_s", "s"},
    {"serve.coop_jobs", "count"},
    {"serve.backfill_jobs", "count"},
    {"serve.chunk_yields", "count"},
    {"serve.sim_queue_wait_p99_ms", "sim_ms"},
    {"serve.gpu_util", "frac"},
    {"serve.cpu_util", "frac"},
    {"dag.nodes", "count"},
    {"dag.transfers", "count"},
    {"dag.transfers_skipped", "count"},
    {"dag.skip_frac", "frac"},
    {"dag.pcie_mb", "MB"},
    {"cluster.new_s", "s"},
    {"cluster.run_s", "s"},
    {"cluster.epochs", "count"},
    {"cluster.messages", "count"},
    {"cluster.steals", "count"},
    {"cluster.epoch_us", "us"},
    {"cluster.master_phase.self_s", "s"},
    {"cluster.worker_epoch.self_s", "s"},
    {"trace.render_s", "s"},
    {"trace.mb", "MB"},
    {"trace.record.self_s", "s"},
    {"stats.report_render_s", "s"},
    {"stats.report_kb", "KB"},
    {"check.errors", "count"},
    {"check.warnings", "count"},
    {"race.findings", "count"},
    {"check.overhead_s", "s"},
    {"race.overhead_s", "s"},
    {"trace.overhead_s", "s"},
    {"race.overhead_x", "x"},
    {"prof.overhead_frac", "frac"},
    {"prof.unattributed_frac", "frac"},
};

/// fcl::prof phases reported as "<phase>.self_s".
const char *const SelfPhases[] = {
    "sim.run",           "fcl.launch_setup",     "fcl.gpu_launch",
    "fcl.chunk_launch",  "fcl.hd_send",          "fcl.merge",
    "fcl.dh_read",       "serve.dispatch",       "serve.chunk_yield",
    "serve.admission",   "serve.callback",       "cluster.master_phase",
    "cluster.worker_epoch", "trace.record",
};

/// Benchmark spans reported as "<span>_s", summed per iteration.
const char *const IterSpans[] = {
    "fluidicl.new",  "fluidicl.write", "fluidicl.launch",
    "fluidicl.read", "work.validate",  "serve.run",
    "cluster.run",   "trace.render",   "stats.report_render",
};

/// Benchmark spans reported as "<span>_s" from the set-up runs.
const char *const SetupSpans[] = {"kern.reference", "serve.engine_new",
                                  "cluster.new"};

std::vector<uint64_t> parseSeeds(const std::string &Text) {
  std::vector<uint64_t> Seeds;
  std::stringstream In(Text);
  std::string Item;
  while (std::getline(In, Item, ','))
    if (!Item.empty())
      Seeds.push_back(std::strtoull(Item.c_str(), nullptr, 10));
  return Seeds;
}

/// Everything the iterations produced, with the output checks applied.
class Tally {
public:
  explicit Tally(size_t Configs)
      : FirstPrint(Configs), FirstOk(Configs, 0), HostS(Configs) {}

  /// Adds one iteration of configuration \p Idx. The first iteration of a
  /// configuration provides the simulated metrics; later ones must repeat
  /// its output bytes exactly.
  void add(size_t Idx, const IterOutcome &O) {
    std::vector<std::string> Checks = O.FailedChecks;
    if (!SeenConfig.count(Idx)) {
      SeenConfig.insert(Idx);
      FirstPrint[Idx] = O.Fingerprint;
      FirstOk[Idx] = O.Ok;
      Sim.add(O);
    } else if (O.Fingerprint != FirstPrint[Idx]) {
      Checks.push_back("deterministic_repeat");
    }
    Attempted += O.Attempted;
    uint64_t Ok = Checks.empty() ? O.Ok : 0;
    OkJobs += Ok;
    if (O.HostS > 0)
      Rates.push_back(static_cast<double>(Ok) / O.HostS);
    HostS[Idx].push_back(O.HostS);
    Failed.insert(Checks.begin(), Checks.end());
  }

  /// Jobs of one pass over the configurations per host second, each
  /// configuration at its fastest iteration (\p Fastest) or its median one.
  /// Interference from other processes only ever adds time to one thread's
  /// work, so a single-threaded run's fastest iteration is the steadiest
  /// estimate of the program's own cost: over eight 15 s serve_overload runs
  /// this rate spread 0.10 (quartile distance over median), the median
  /// iteration's 0.17. A threaded run also waits for its threads to wake at
  /// every barrier, which scatters its times both ways; over eight
  /// cluster_pipeline runs the median spread 0.05, the fastest 0.09.
  double passRate(bool Fastest) const {
    double Jobs = 0, Secs = 0;
    for (size_t I = 0; I < HostS.size(); ++I) {
      if (HostS[I].empty())
        return 0;
      Jobs += static_cast<double>(FirstOk[I]);
      Secs += Fastest ? *std::min_element(HostS[I].begin(), HostS[I].end())
                      : median(HostS[I]);
    }
    return Secs > 0 ? Jobs / Secs : 0;
  }

  uint64_t Attempted = 0;
  uint64_t OkJobs = 0;
  std::vector<double> Rates;
  std::set<std::string> Failed;
  SimPool Sim;

private:
  std::set<size_t> SeenConfig;
  std::vector<std::string> FirstPrint;
  std::vector<uint64_t> FirstOk;
  /// Host seconds of every iteration, per configuration.
  std::vector<std::vector<double>> HostS;
};

/// Moves a run to the next window of CPUs after every pass over the
/// configurations. On a shared host each CPU's speed drifts on its own, by
/// up to half, in spells of tens of seconds: two copies of one run started
/// together on two CPUs went through fast and slow spells at different
/// times. A run left where the scheduler put it measures those CPUs'
/// spells; a run moved over all of them measures their mix, and its fastest
/// pass the quietest window.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &Set))
          Cpus.push_back(Cpu);
  }

  /// Pins the calling thread, and the threads it starts later, to \p Width
  /// allowed CPUs starting at the \p Pass-th, cyclically.
  void pin(size_t Pass, size_t Width) const {
    if (Width >= Cpus.size())
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    for (size_t I = 0; I < Width; ++I)
      CPU_SET(Cpus[(Pass + I) % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  std::vector<int> Cpus;
};

/// Self and inclusive prof time per leaf phase name, seconds. Re-entrant
/// dispatch -> callback -> dispatch chains split one phase over many
/// paths; folding by leaf name puts them back together.
struct Folded {
  std::map<std::string, double> Self;
  std::map<std::string, double> Incl;
};

Folded foldByLeaf(const prof::Snapshot &S) {
  Folded F;
  for (const prof::PhaseStats &P : S.Phases) {
    F.Self[P.Name] += static_cast<double>(P.ExclusiveNs) * 1e-9;
    F.Incl[P.Name] += static_cast<double>(P.InclusiveNs) * 1e-9;
  }
  return F;
}

double counterOf(const prof::Snapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : static_cast<double>(It->second);
}

/// The per-layer sample of one traced iteration (run id \p Run), given the
/// host time of its untraced twin.
std::map<std::string, double> layerSample(const IterOutcome &On,
                                          const prof::Snapshot &Snap,
                                          const SpanLog &L, int Run,
                                          double OffHostS, bool IsCluster) {
  std::map<std::string, double> M = On.Layer;
  Folded F = foldByLeaf(Snap);
  for (const char *P : SelfPhases)
    M[std::string(P) + ".self_s"] = F.Self[P];
  for (const char *S : IterSpans)
    M[std::string(S) + "_s"] = L.secondsByRun(S)[Run];
  double Events = counterOf(Snap, "sim.events_executed");
  M["sim.events"] = Events;
  M["sim.tombstone_skips"] = counterOf(Snap, "sim.tombstone_skips");
  M["sim.compaction_runs"] = counterOf(Snap, "sim.compaction_runs");
  M["sim.ns_per_event"] = Events > 0 ? OffHostS * 1e9 / Events : 0;
  double Epochs = M["cluster.epochs"];
  M["cluster.epoch_us"] = IsCluster && Epochs > 0 ? OffHostS * 1e6 / Epochs : 0;
  double RunIncl = F.Incl["sim.run"];
  M["prof.unattributed_frac"] = RunIncl > 0 ? F.Self["sim.run"] / RunIncl : 0;
  return M;
}

void printMetrics(const MetricDecl *Decls, size_t N,
                  std::map<std::string, double> &Values, bool Correct,
                  uint64_t Attempted, uint64_t Failed,
                  const std::set<std::string> &FailedChecks) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"failed_checks\": [";
  bool First = true;
  for (const std::string &C : FailedChecks) {
    Out += (First ? "\"" : ", \"") + C + "\"";
    First = false;
  }
  Out += "], \"metrics\": {";
  for (size_t I = 0; I < N; ++I) {
    double V = Values[Decls[I].Name];
    if (!std::isfinite(V))
      V = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += std::string(I ? ", " : "") + "\"" + Decls[I].Name +
           "\": {\"value\": " + Buf + ", \"unit\": \"" + Decls[I].Unit +
           "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("fcl_perfbench",
                 "one benchmark workload: host speed and simulated outcome");
  Args.addOption("workload", "workload name (for spans and messages)", "");
  Args.addOption("kind", "serve|cluster|paper", "");
  Args.addOption("seeds", "comma-separated load-generator seeds", "");
  Args.addOption("mix", "serve job mix", "mixed");
  Args.addOption("streams", "client streams", "8");
  Args.addOption("rate", "per-stream Poisson rate, requests/s", "150");
  Args.addOption("queue-depth", "admission queue depth", "64");
  Args.addOption("horizon-s", "simulated admission window, s", "0.25");
  Args.addOption("workers", "cluster worker pairs", "2");
  Args.addFlag("armed", "serve: check, races, trace and reports on");
  Args.addOption("size", "paper application size", "512");
  Args.addOption("seconds", "host-time budget of the measured loop", "10");
  Args.addOption("trace", "0: end-to-end metrics, 1: per-layer metrics",
                 "0");
  Args.addOption("spans", "write the traced run's spans here (JSON lines)",
                 "");
  if (!Args.parse(Argc - 1, Argv + 1)) {
    std::fprintf(stderr, "error: %s\n%s", Args.error().c_str(),
                 Args.helpText().c_str());
    return 1;
  }
  if (Args.helpRequested()) {
    std::printf("%s", Args.helpText().c_str());
    return 0;
  }

  Config C;
  C.Workload = Args.str("workload");
  C.Kind = Args.str("kind");
  C.Seeds = parseSeeds(Args.str("seeds"));
  C.Mix = Args.str("mix");
  C.Streams = static_cast<int>(Args.i64("streams"));
  C.RatePerSec = Args.f64("rate");
  C.QueueDepth = static_cast<int>(Args.i64("queue-depth"));
  C.HorizonS = Args.f64("horizon-s");
  C.Workers = static_cast<int>(Args.i64("workers"));
  C.Armed = Args.flag("armed");
  C.PaperSize = static_cast<int>(Args.i64("size"));
  double Seconds = Args.f64("seconds");
  bool Traced = Args.i64("trace") != 0;
  serve::MixKind Mix;
  if (!serve::parseMix(C.Mix, Mix) || C.Streams <= 0 || C.QueueDepth <= 0 ||
      C.HorizonS <= 0 || C.Workers <= 0 || C.PaperSize <= 0) {
    std::fprintf(stderr, "error: bad workload configuration\n");
    return 1;
  }
  std::unique_ptr<BenchWorkload> W = makeWorkload(C);
  if (!W)
    return 1;

  SpanLog L(C.Workload);
  int Run = 0;

  // Set-ups: five before the loop, then more between iterations while
  // in-loop set-up stays under a twentieth of the loop's time. setup_s is
  // the fastest: a serve set-up's median moved by a quarter between two
  // ten-run sets 15 minutes apart, its fastest by under 5%.
  std::vector<double> SetupS;
  std::vector<int> SetupRuns;
  double LoopSetupS = 0;
  auto SetUp = [&] {
    SetupRuns.push_back(Run);
    L.setRun(Run++);
    L.setEnabled(Traced);
    double T0 = hostSeconds();
    {
      SpanLog::Scope S(L, "setup");
      W->setup(L);
    }
    L.setEnabled(false);
    SetupS.push_back(hostSeconds() - T0);
    return SetupS.back();
  };
  // The run moves to the next window of CPUs after every set-up before the
  // loop and every pass in it. A window has a CPU for each thread: the
  // cluster's master and its workers, which inherit the pin.
  const size_t Threads = C.Kind == "cluster" ? C.Workers + 1 : 1;
  CpuRotation Cpus;
  for (size_t R = 0; R < 5; ++R) {
    Cpus.pin(R, Threads);
    SetUp();
  }

  // The measured loop: cycle over the configurations until the budget is
  // spent and every configuration ran at least once.
  const size_t K = W->configs();
  Tally T(K);
  prof::Profiler &Prof = prof::Profiler::instance();
  std::vector<std::map<std::string, double>> Layers;
  std::vector<double> ProfRatios;
  double Start = hostSeconds();
  for (size_t I = 0; I < K || hostSeconds() - Start < Seconds; ++I) {
    for (int Burst = 0;
         Burst < 100 && LoopSetupS < 0.05 * (hostSeconds() - Start); ++Burst)
      LoopSetupS += SetUp();
    size_t Idx = I % K;
    if (Idx == 0)
      Cpus.pin(I / K, Threads);
    if (!Traced) {
      L.setRun(Run++);
      T.add(Idx, W->iterate(Idx, L));
      continue;
    }
    // Traced: an untraced and a traced iteration of the same configuration,
    // in alternating order so drift hits both sides alike.
    IterOutcome Off, On;
    prof::Snapshot Snap;
    int OnRun = Run++;
    auto RunOff = [&] { Off = W->iterate(Idx, L); };
    auto RunOn = [&] {
      L.setRun(OnRun);
      L.setEnabled(true);
      Prof.reset();
      Prof.setEnabled(true);
      {
        SpanLog::Scope S(L, "iteration");
        On = W->iterate(Idx, L);
      }
      Prof.setEnabled(false);
      L.setEnabled(false);
      Snap = Prof.snapshot();
    };
    if (I % 2 == 0) {
      RunOff();
      RunOn();
    } else {
      RunOn();
      RunOff();
    }
    T.add(Idx, Off);
    T.add(Idx, On);
    if (Off.HostS > 0)
      ProfRatios.push_back(On.HostS / Off.HostS);
    Layers.push_back(
        layerSample(On, Snap, L, OnRun, Off.HostS, C.Kind == "cluster"));
  }
  double LoopS = hostSeconds() - Start;

  std::vector<std::string> Final;
  W->finish(Final, T.Sim);
  T.Failed.insert(Final.begin(), Final.end());
  if (!Final.empty())
    T.OkJobs = 0;
  bool Correct = T.Failed.empty();
  uint64_t FailedJobs = T.Attempted - T.OkJobs;

  std::map<std::string, double> Values;
  if (!Traced) {
    serve::LatencySummary Lat = serve::summarizeLatency(T.Sim.LatMs);
    Values["jobs_per_s"] = T.passRate(/*Fastest=*/Threads == 1);
    Values["setup_s"] = *std::min_element(SetupS.begin(), SetupS.end());
    Values["peak_rss_mb"] = static_cast<double>(prof::peakRssBytes()) * 1e-6;
    Values["ok_frac"] = T.Attempted ? static_cast<double>(T.OkJobs) /
                                          static_cast<double>(T.Attempted)
                                    : 0;
    Values["sim_e2e_p50_ms"] = Lat.P50;
    Values["sim_e2e_p99_ms"] = Lat.P99;
    Values["sim_jobs_per_s"] =
        T.Sim.SpanS > 0 ? static_cast<double>(T.Sim.Ok) / T.Sim.SpanS : 0;
    Values["sim_speedup_geomean"] = W->speedupGeomean();
    std::fprintf(stderr,
                 "%s: %zu iterations in %.2f s (jobs/s min %.6g median "
                 "%.6g), %llu jobs, %zu set-ups (median %.6g s), sim latency "
                 "over %zu completed jobs\n",
                 C.Workload.c_str(), T.Rates.size(), LoopS,
                 T.Rates.empty()
                     ? 0
                     : *std::min_element(T.Rates.begin(), T.Rates.end()),
                 median(T.Rates), static_cast<unsigned long long>(T.Attempted),
                 SetupS.size(), median(SetupS), T.Sim.LatMs.size());
  } else {
    std::set<std::string> Names;
    for (const auto &M : Layers)
      for (const auto &[Name, V] : M)
        Names.insert(Name);
    for (const std::string &Name : Names) {
      std::vector<double> Vs;
      for (const auto &M : Layers) {
        auto It = M.find(Name);
        Vs.push_back(It == M.end() ? 0 : It->second);
      }
      Values[Name] = median(Vs);
    }
    for (const char *S : SetupSpans) {
      std::map<int, double> ByRun = L.secondsByRun(S);
      std::vector<double> Vs;
      for (int R : SetupRuns)
        Vs.push_back(ByRun[R]);
      Values[std::string(S) + "_s"] = median(Vs);
    }
    Values["prof.overhead_frac"] = median(ProfRatios) - 1;
    W->twinLayers(Values);
    std::fprintf(stderr, "%s: %zu traced pairs in %.2f s\n",
                 C.Workload.c_str(), Layers.size(), LoopS);
    std::string SpansPath = Args.str("spans");
    if (!SpansPath.empty() && !L.write(SpansPath))
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   SpansPath.c_str());
  }

  for (const std::string &F : T.Failed)
    std::fprintf(stderr, "FAILED CHECK: %s\n", F.c_str());
  if (Traced)
    printMetrics(PerLayer, std::size(PerLayer), Values, Correct, T.Attempted,
                 FailedJobs, T.Failed);
  else
    printMetrics(EndToEnd, std::size(EndToEnd), Values, Correct, T.Attempted,
                 FailedJobs, T.Failed);
  return Correct ? 0 : 3;
}

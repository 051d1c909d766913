//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cluster/Cluster.h"
#include "fluidicl/Runtime.h"
#include "serve/Engine.h"
#include "trace/Tracer.h"
#include "work/Driver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>

using namespace fcl;
using namespace perfbench;

namespace {

/// Geomean over the distinct applications of \p Ts of (better single-device
/// simulated time / FluidiCL simulated time), each run alone, TimingOnly.
double templateSpeedup(const std::vector<serve::JobTemplate> &Ts, SpanLog &L) {
  SpanLog::Scope S(L, "work.time_under");
  std::set<std::string> Seen;
  double LogSum = 0;
  int N = 0;
  for (const serve::JobTemplate &T : Ts) {
    if (!Seen.insert(T.W.Name).second)
      continue;
    Duration Best =
        std::min(work::timeUnder(work::RuntimeKind::CpuOnly, T.W),
                 work::timeUnder(work::RuntimeKind::GpuOnly, T.W));
    Duration Fcl = work::timeUnder(work::RuntimeKind::FluidiCL, T.W);
    LogSum += std::log(Best.toSeconds() / Fcl.toSeconds());
    ++N;
  }
  return N ? std::exp(LogSum / N) : 0;
}

serve::EngineConfig serveConfig(const Config &C, uint64_t Seed) {
  serve::EngineConfig E;
  E.P = serve::Policy::FluidicCorun;
  bool KnownMix = serve::parseMix(C.Mix, E.Mix);
  FCL_CHECK(KnownMix, "unknown mix");
  E.Streams = C.Streams;
  E.Arrival.Kind = serve::ArrivalKind::Poisson;
  E.Arrival.RatePerSec = C.RatePerSec;
  E.Horizon = Duration::seconds(C.HorizonS);
  E.Seed = Seed;
  E.QueueDepth = C.QueueDepth;
  return E;
}

void addDagLayers(IterOutcome &O, double Nodes, double Transfers,
                  double Skipped, double PcieBytes) {
  O.Layer["dag.nodes"] = Nodes;
  O.Layer["dag.transfers"] = Transfers;
  O.Layer["dag.transfers_skipped"] = Skipped;
  O.Layer["dag.skip_frac"] =
      Transfers + Skipped > 0 ? Skipped / (Transfers + Skipped) : 0;
  O.Layer["dag.pcie_mb"] = PcieBytes * 1e-6;
}

//===----------------------------------------------------------------------===//
// serve: one serve::Engine run per iteration.
//===----------------------------------------------------------------------===//

class ServeBench final : public BenchWorkload {
  /// Armed runs cost ~0.1 s each; eight seeds keep one pass short while
  /// averaging out how the race analyzer's cost varies between seeds.
  static constexpr size_t ArmedSeeds = 8;

public:
  explicit ServeBench(Config C) : C(std::move(C)) {}

  void setup(SpanLog &L) override {
    std::vector<serve::JobTemplate> Templates;
    {
      SpanLog::Scope S(L, "serve.templates");
      Templates = serve::jobTemplates(serveConfig(C, 0).Mix);
    }
    Speedup = templateSpeedup(Templates, L);
    SpanLog::Scope S(L, "serve.engine_new");
    serve::Engine E(serveConfig(C, C.Seeds[0]));
  }

  size_t configs() const override {
    return C.Armed ? std::min(ArmedSeeds, C.Seeds.size()) : C.Seeds.size();
  }

  IterOutcome iterate(size_t Idx, SpanLog &L) override {
    serve::EngineConfig EC = serveConfig(C, C.Seeds[Idx]);
    trace::Tracer Tracer;
    if (C.Armed) {
      EC.FclOpts.Check = check::Policy::Warn;
      EC.Races = check::Policy::Warn;
      EC.Tracer = &Tracer;
    }
    std::optional<serve::Engine> E;
    {
      SpanLog::Scope S(L, "serve.engine_new");
      E.emplace(EC);
    }
    std::string Json, Csv, Chrome;
    double T0 = hostSeconds();
    serve::ServeReport R;
    {
      SpanLog::Scope S(L, "serve.run");
      R = E->run();
    }
    if (C.Armed) {
      {
        SpanLog::Scope S(L, "stats.report_render");
        Json = R.toJson();
        Csv = R.toCsv();
      }
      SpanLog::Scope S(L, "trace.render");
      Chrome = Tracer.renderChromeTrace();
    }
    double HostS = hostSeconds() - T0;
    if (!C.Armed) {
      SpanLog::Scope S(L, "stats.report_render");
      Json = R.toJson();
    }
    E.reset();

    IterOutcome O = outcomeOf(R);
    O.HostS = HostS;
    O.Layer["serve.coop_jobs"] = static_cast<double>(R.CoopJobs);
    O.Layer["serve.backfill_jobs"] = static_cast<double>(R.BackfillJobs);
    O.Layer["serve.chunk_yields"] = static_cast<double>(R.ChunkYields);
    O.Layer["serve.sim_queue_wait_p99_ms"] = R.QueueWait.P99;
    O.Layer["serve.gpu_util"] = R.GpuUtil;
    O.Layer["serve.cpu_util"] = R.CpuUtil;
    addDagLayers(O, static_cast<double>(R.DagNodes),
                 static_cast<double>(R.DagTransfers),
                 static_cast<double>(R.DagTransfersSkipped),
                 static_cast<double>(R.DagPcieBytes));
    O.Layer["check.errors"] = static_cast<double>(R.CheckErrors);
    O.Layer["check.warnings"] = static_cast<double>(R.CheckWarnings);
    O.Layer["race.findings"] = static_cast<double>(R.RaceFindings);
    O.Layer["trace.mb"] = static_cast<double>(Chrome.size()) * 1e-6;
    O.Layer["stats.report_kb"] =
        static_cast<double>(Json.size() + Csv.size()) * 1e-3;
    if (C.Armed && ArmedJson.size() == Idx)
      ArmedJson.push_back(Json);
    O.Fingerprint = std::move(Json);
    return O;
  }

  double speedupGeomean() const override { return Speedup; }

  void finish(std::vector<std::string> &Failed, SimPool &Sim) override {
    if (!C.Armed)
      return;
    // Plain twins of every seed. The observers must not perturb the
    // simulation: each armed report is byte-identical to its plain twin.
    Sim = SimPool();
    for (size_t I = 0; I < C.Seeds.size(); ++I) {
      serve::Engine E(serveConfig(C, C.Seeds[I]));
      serve::ServeReport R = E.run();
      if (I < ArmedJson.size() && R.toJson() != ArmedJson[I])
        Failed.push_back("armed_twin_identical");
      IterOutcome O = outcomeOf(R);
      Failed.insert(Failed.end(), O.FailedChecks.begin(), O.FailedChecks.end());
      Sim.add(O);
    }
  }

  void twinLayers(std::map<std::string, double> &Layer) override {
    if (!C.Armed)
      return;
    // Plain, check-only, races-only and trace-only runs of the first
    // configuration, interleaved so host noise hits every twin alike.
    enum Observer { Plain, Check, Races, Trace, NumObservers };
    std::vector<double> Times[NumObservers];
    for (int Rep = 0; Rep < 3; ++Rep)
      for (int Obs = Plain; Obs < NumObservers; ++Obs) {
        serve::EngineConfig EC = serveConfig(C, C.Seeds[0]);
        trace::Tracer Tracer;
        if (Obs == Check)
          EC.FclOpts.Check = check::Policy::Warn;
        if (Obs == Races)
          EC.Races = check::Policy::Warn;
        if (Obs == Trace)
          EC.Tracer = &Tracer;
        serve::Engine E(EC);
        double T0 = hostSeconds();
        E.run();
        if (Obs == Trace)
          Tracer.renderChromeTrace();
        Times[Obs].push_back(hostSeconds() - T0);
      }
    double Base = median(Times[Plain]);
    Layer["check.overhead_s"] = median(Times[Check]) - Base;
    Layer["race.overhead_s"] = median(Times[Races]) - Base;
    Layer["trace.overhead_s"] = median(Times[Trace]) - Base;
    Layer["race.overhead_x"] = Base > 0 ? median(Times[Races]) / Base : 0;
  }

private:
  static IterOutcome outcomeOf(const serve::ServeReport &R) {
    IterOutcome O;
    O.Attempted = R.Submitted;
    O.Ok = R.Completed - std::min(R.Completed, R.ValidationFailures);
    if (R.Completed + R.Rejected != R.Submitted)
      O.FailedChecks.push_back("job_conservation");
    if (R.CheckErrors)
      O.FailedChecks.push_back("check_errors");
    if (R.RaceFindings)
      O.FailedChecks.push_back("race_findings");
    for (const serve::RequestRecord &Q : R.Requests)
      if (!Q.Rejected)
        O.SimLatMs.push_back(Q.e2eMs());
    O.SimSpanS = R.MakespanMs * 1e-3;
    return O;
  }

  Config C;
  double Speedup = 0;
  /// Report JSON of each armed seed's first run.
  std::vector<std::string> ArmedJson;
};

//===----------------------------------------------------------------------===//
// cluster: one cluster::Cluster run per iteration.
//===----------------------------------------------------------------------===//

class ClusterBench final : public BenchWorkload {
public:
  explicit ClusterBench(Config C) : C(std::move(C)) {}

  void setup(SpanLog &L) override {
    std::vector<serve::JobTemplate> Templates;
    {
      SpanLog::Scope S(L, "serve.templates");
      Templates = serve::jobTemplates(serveConfig(C, 0).Mix);
    }
    Speedup = templateSpeedup(Templates, L);
    SpanLog::Scope S(L, "cluster.new");
    cluster::Cluster Cl(clusterConfig(C.Seeds[0]));
  }

  size_t configs() const override { return C.Seeds.size(); }

  IterOutcome iterate(size_t Idx, SpanLog &L) override {
    std::optional<cluster::Cluster> Cl;
    {
      SpanLog::Scope S(L, "cluster.new");
      Cl.emplace(clusterConfig(C.Seeds[Idx]));
    }
    IterOutcome O;
    double T0 = hostSeconds();
    cluster::ClusterReport R;
    {
      SpanLog::Scope S(L, "cluster.run");
      R = Cl->run();
    }
    O.HostS = hostSeconds() - T0;
    std::string Json;
    {
      SpanLog::Scope S(L, "stats.report_render");
      Json = R.toJson();
    }
    Cl.reset();

    O.Attempted = R.Submitted;
    O.Ok = R.Completed - std::min(R.Completed, R.ValidationFailures);
    if (R.Completed + R.Rejected != R.Submitted)
      O.FailedChecks.push_back("job_conservation");
    for (const cluster::ClusterJobRecord &J : R.Jobs)
      if (J.Done && !J.Rejected)
        O.SimLatMs.push_back(J.e2eMs());
    O.SimSpanS = R.MakespanMs * 1e-3;
    O.Layer["cluster.epochs"] = static_cast<double>(R.Epochs);
    O.Layer["cluster.messages"] = static_cast<double>(R.Messages);
    O.Layer["cluster.steals"] = static_cast<double>(R.Steals);
    O.Layer["serve.sim_queue_wait_p99_ms"] = R.QueueWait.P99;
    double Gpu = 0, Cpu = 0;
    for (const cluster::WorkerSummary &W : R.PerWorker) {
      Gpu += W.GpuUtil;
      Cpu += W.CpuUtil;
    }
    if (!R.PerWorker.empty()) {
      O.Layer["serve.gpu_util"] = Gpu / static_cast<double>(R.PerWorker.size());
      O.Layer["serve.cpu_util"] = Cpu / static_cast<double>(R.PerWorker.size());
    }
    auto Count = [&R](const char *Name) {
      return static_cast<double>(R.Stats.counter(Name));
    };
    addDagLayers(O, Count("cluster_dag_nodes"), Count("cluster_dag_transfers"),
                 Count("cluster_dag_transfers_skipped"),
                 Count("cluster_dag_pcie_bytes"));
    O.Layer["stats.report_kb"] = static_cast<double>(Json.size()) * 1e-3;
    O.Fingerprint = std::move(Json);
    return O;
  }

  double speedupGeomean() const override { return Speedup; }

private:
  cluster::ClusterConfig clusterConfig(uint64_t Seed) const {
    cluster::ClusterConfig CC;
    CC.Workers = C.Workers;
    CC.Place = cluster::Placement::LeastLoaded;
    CC.Steal = true;
    CC.Worker = serveConfig(C, Seed);
    return CC;
  }

  Config C;
  double Speedup = 0;
};

//===----------------------------------------------------------------------===//
// paper: the six paper applications through the blocking Runtime API.
//===----------------------------------------------------------------------===//

class PaperBench final : public BenchWorkload {
public:
  explicit PaperBench(Config C) : C(std::move(C)) {}

  void setup(SpanLog &L) override {
    int64_t N = C.PaperSize;
    {
      SpanLog::Scope S(L, "work.make_workloads");
      Apps = {work::makeAtax(N, N), work::makeBicg(N, N),
              work::makeCorr(N, N), work::makeGesummv(N),
              work::makeSyrk(N, N), work::makeSyr2k(N, N)};
    }
    Host.clear();
    Ref.clear();
    BestSingleS.clear();
    for (const work::Workload &W : Apps) {
      {
        SpanLog::Scope S(L, "work.init_host_data");
        Host.push_back(work::initHostData(W));
      }
      {
        SpanLog::Scope S(L, "kern.reference");
        Ref.push_back(Host.back());
        work::computeReference(W, Ref.back());
      }
      SpanLog::Scope S(L, "work.time_under");
      BestSingleS.push_back(
          std::min(work::timeUnder(work::RuntimeKind::CpuOnly, W),
                   work::timeUnder(work::RuntimeKind::GpuOnly, W))
              .toSeconds());
    }
    FluidiclS.assign(Apps.size(), 0);
  }

  IterOutcome iterate(size_t, SpanLog &L) override {
    IterOutcome O;
    uint64_t Subkernels = 0, GpuWasted = 0, CpuWasted = 0, Groups = 0,
             Executed = 0, HdBytes = 0, MergeBytes = 0;
    double T0 = hostSeconds();
    for (size_t A = 0; A < Apps.size(); ++A) {
      const work::Workload &W = Apps[A];
      std::unique_ptr<mcl::Context> Ctx;
      std::unique_ptr<fluidicl::Runtime> RT;
      {
        SpanLog::Scope S(L, "fluidicl.new");
        Ctx = std::make_unique<mcl::Context>(hw::paperMachine(),
                                             mcl::ExecMode::Functional);
        RT = std::make_unique<fluidicl::Runtime>(*Ctx, fluidicl::Options());
      }
      TimePoint Start = RT->now();
      std::vector<runtime::BufferId> Ids;
      {
        SpanLog::Scope S(L, "fluidicl.write");
        for (const work::BufferSpec &B : W.Buffers)
          Ids.push_back(RT->createBuffer(B.Bytes, B.Name));
        for (size_t I = 0; I < W.Buffers.size(); ++I)
          RT->writeBuffer(Ids[I], Host[A][I].data(), W.Buffers[I].Bytes);
      }
      for (const work::KernelCall &Call : W.Calls) {
        std::vector<runtime::KArg> Args = Call.Args;
        for (runtime::KArg &Arg : Args)
          if (Arg.IsBuffer)
            Arg.Buf = Ids[Arg.Buf];
        SpanLog::Scope S(L, "fluidicl.launch");
        RT->launchKernel(Call.Kernel, Call.Range, Args);
      }
      std::vector<std::vector<std::byte>> Results;
      for (size_t RIdx : W.ResultBuffers) {
        Results.emplace_back(W.Buffers[RIdx].Bytes);
        SpanLog::Scope S(L, "fluidicl.read");
        RT->readBuffer(Ids[RIdx], Results.back().data(),
                       W.Buffers[RIdx].Bytes);
      }
      // The application's time ends when it has its results (as the paper
      // measures); trailing cooperative work drains afterwards.
      Duration Sim = RT->now() - Start;
      {
        SpanLog::Scope S(L, "fluidicl.finish");
        RT->finish();
      }
      for (const fluidicl::KernelStats &K : RT->kernelStats()) {
        Subkernels += K.CpuSubkernels;
        GpuWasted += K.GpuGroupsWasted;
        CpuWasted += K.CpuGroupsWasted;
        Groups += K.TotalGroups;
        Executed += K.GpuGroupsExecuted + K.CpuGroupsExecuted;
        HdBytes += K.HdBytesSent;
        MergeBytes += K.MergeBytesDiffed;
      }
      bool Valid;
      {
        SpanLog::Scope S(L, "work.validate");
        Valid = matchesReference(W, A, Results);
      }
      ++O.Attempted;
      if (Valid)
        ++O.Ok;
      else
        O.FailedChecks.push_back("validation_" + W.Name);
      O.SimLatMs.push_back(Sim.toMillis());
      O.SimSpanS += Sim.toSeconds();
      FluidiclS[A] = Sim.toSeconds();
      O.Fingerprint += W.Name + " " + std::to_string(Sim.nanos()) + "\n";
    }
    O.HostS = hostSeconds() - T0;
    O.Layer["fluidicl.subkernels"] = static_cast<double>(Subkernels);
    O.Layer["fluidicl.gpu_groups_wasted"] = static_cast<double>(GpuWasted);
    O.Layer["fluidicl.cpu_groups_wasted"] = static_cast<double>(CpuWasted);
    O.Layer["fluidicl.useful_group_frac"] =
        Executed ? static_cast<double>(Groups) / static_cast<double>(Executed)
                 : 0;
    O.Layer["fluidicl.hd_mb"] = static_cast<double>(HdBytes) * 1e-6;
    O.Layer["fluidicl.merge_mb"] = static_cast<double>(MergeBytes) * 1e-6;
    return O;
  }

  double speedupGeomean() const override {
    double LogSum = 0;
    for (size_t A = 0; A < Apps.size(); ++A)
      LogSum += std::log(BestSingleS[A] / FluidiclS[A]);
    return Apps.empty() ? 0 : std::exp(LogSum / static_cast<double>(Apps.size()));
  }

private:
  /// The tolerance work::runWorkload applies: identical operation order on
  /// every path, so results agree up to tiny float noise.
  bool matchesReference(const work::Workload &W, size_t A,
                        const std::vector<std::vector<std::byte>> &Results)
      const {
    for (size_t R = 0; R < W.ResultBuffers.size(); ++R) {
      const std::vector<std::byte> &Want = Ref[A][W.ResultBuffers[R]];
      if (Results[R].size() != Want.size())
        return false;
      size_t Count = Want.size() / sizeof(float);
      std::vector<float> G(Count), X(Count);
      std::memcpy(G.data(), Results[R].data(), Count * sizeof(float));
      std::memcpy(X.data(), Want.data(), Count * sizeof(float));
      for (size_t J = 0; J < Count; ++J)
        if (!(std::fabs(static_cast<double>(G[J]) - X[J]) <=
              1e-5 + 1e-5 * std::fabs(X[J])))
          return false;
    }
    return true;
  }

  Config C;
  std::vector<work::Workload> Apps;
  std::vector<std::vector<std::vector<std::byte>>> Host;
  std::vector<std::vector<std::vector<std::byte>>> Ref;
  std::vector<double> BestSingleS;
  std::vector<double> FluidiclS;
};

} // namespace

std::unique_ptr<BenchWorkload> perfbench::makeWorkload(const Config &C) {
  if (C.Seeds.empty() && C.Kind != "paper") {
    std::fprintf(stderr, "error: workload '%s' needs --seeds\n",
                 C.Workload.c_str());
    return nullptr;
  }
  if (C.Kind == "serve")
    return std::make_unique<ServeBench>(C);
  if (C.Kind == "cluster")
    return std::make_unique<ClusterBench>(C);
  if (C.Kind == "paper")
    return std::make_unique<PaperBench>(C);
  std::fprintf(stderr, "error: unknown workload kind '%s'\n", C.Kind.c_str());
  return nullptr;
}

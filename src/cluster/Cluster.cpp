//===- cluster/Cluster.cpp - Sharded multi-pair serve tier ----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "prof/Profiler.h"
#include "race/Bridge.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <thread>

using namespace fcl;
using namespace fcl::cluster;

std::string ClusterConfig::validate() const {
  if (Workers < 1 || Workers > 64)
    return formatString("--workers must be in [1, 64] (got %d)", Workers);
  if (Quantum <= Duration::zero())
    return formatString("--quantum-ms must be > 0 (got %g)",
                        Quantum.toMillis());
  if (LinkLatency < Duration::zero())
    return formatString("--link-us must be >= 0 (got %g)",
                        LinkLatency.toMicros());
  if (Worker.Arrival.Kind == serve::ArrivalKind::Closed)
    return "--arrival=closed:* is not supported by the cluster (think "
           "loops would couple worker clocks)";
  if (std::string Invalid = Worker.validate(); !Invalid.empty())
    return Invalid;
  double WindowEpochs = Worker.Horizon.toSeconds() / Quantum.toSeconds();
  if (WindowEpochs > static_cast<double>(MaxEpochs / 2))
    return formatString("--quantum-ms must be >= %g for --duration=%g (got "
                        "%g): the window may span at most %llu epochs",
                        Worker.Horizon.toMillis() / (MaxEpochs / 2),
                        Worker.Horizon.toSeconds(), Quantum.toMillis(),
                        static_cast<unsigned long long>(MaxEpochs / 2));
  return "";
}

Cluster::Cluster(ClusterConfig C)
    : Cfg(std::move(C)), Barrier(Cfg.Workers),
      MasterRng(serve::StreamGen::mixSeed(Cfg.Worker.Seed, 1 << 20)) {
  std::string Invalid = Cfg.validate();
  FCL_CHECK(Invalid.empty(), Invalid.c_str());
  Templates = serve::jobTemplates(Cfg.Worker.Mix);
  JobsObj = "cluster.jobs";
  for (int I = 0; I < Cfg.Workers; ++I) {
    auto W = std::make_unique<Worker>();
    W->Index = I;
    W->OutboxObj = formatString("cluster.outbox#%d", I);
    // The master arms the race analyzer and collects its findings once for
    // all workers.
    serve::EngineConfig EC = Cfg.Worker;
    EC.Races = check::Policy::Off;
    EC.Tracer = nullptr;
    if (Cfg.Worker.Tracer) {
      // Each worker records into a private tracer on its own thread; the
      // master merges them (with a "w<i> " lane prefix) after the join.
      W->Trace = std::make_unique<trace::Tracer>();
      EC.Tracer = W->Trace.get();
    }
    W->Eng = std::make_unique<serve::Engine>(EC);
    Worker *WP = W.get();
    W->Eng->setOutcomeFn([this, WP](const serve::JobOutcome &O) {
      if (race::Analyzer::enabled())
        race::Analyzer::instance().sharedWrite(WP->OutboxObj, "outcome");
      WP->Outbox.push_back(O);
    });
    Workers.push_back(std::move(W));
  }
}

Cluster::~Cluster() = default;

void Cluster::drawArrivals() {
  // serve's draw, merged into one cluster-wide sequence. stable_sort keeps
  // equal timestamps in stream-major order, so job ids - and therefore
  // placement - are deterministic.
  Draws = serve::drawOpenLoop(Cfg.Worker.Seed, Cfg.Worker.Streams,
                              Cfg.Worker.Arrival, Cfg.Worker.Horizon,
                              Templates);
  std::stable_sort(Draws.begin(), Draws.end(),
                   [](const serve::Arrival &A, const serve::Arrival &B) {
                     return A.At < B.At;
                   });
  Jobs.resize(Draws.size());
  for (size_t I = 0; I < Draws.size(); ++I) {
    ClusterJobRecord &J = Jobs[I];
    J.Id = I;
    J.Stream = Draws[I].Stream;
    const serve::JobTemplate &T = Templates[Draws[I].TemplateIdx];
    J.Workload = T.W.Name;
    J.MaxGroups = T.MaxGroups;
    J.Large = T.MaxGroups >= Cfg.Worker.LargeThreshold;
    J.ArrivalAt = Draws[I].At;
  }
}

int Cluster::placeJob(const serve::Arrival &D) {
  switch (Cfg.Place) {
  case Placement::HashAffine:
    return static_cast<int>(
        serve::StreamGen::mixSeed(Cfg.Worker.Seed, D.Stream) %
        static_cast<uint64_t>(Cfg.Workers));
  case Placement::LeastLoaded: {
    int Best = 0;
    for (int I = 1; I < Cfg.Workers; ++I)
      if (Workers[I]->OutstandingJobs < Workers[Best]->OutstandingJobs)
        Best = I;
    return Best;
  }
  case Placement::SizeAware: {
    int Best = 0;
    for (int I = 1; I < Cfg.Workers; ++I)
      if (Workers[I]->OutstandingGroups < Workers[Best]->OutstandingGroups)
        Best = I;
    return Best;
  }
  }
  return 0;
}

void Cluster::injectDraw(uint64_t Id, const serve::Arrival &D, int WI) {
  Worker &W = *Workers[WI];
  Jobs[Id].FirstWorker = WI;
  Jobs[Id].Worker = WI;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(JobsObj, "place");
  W.Eng->injectJob(Id, D.TemplateIdx, D.Stream, D.At);
  ++W.Assigned;
  ++W.OutstandingJobs;
  W.OutstandingGroups += Templates[D.TemplateIdx].MaxGroups;
  ++Messages;
}

void Cluster::drainOutboxes() {
  for (auto &WP : Workers) {
    Worker &W = *WP;
    if (W.Outbox.empty())
      continue;
    if (race::Analyzer::enabled())
      race::Analyzer::instance().sharedWrite(W.OutboxObj, "drain");
    for (const serve::JobOutcome &O : W.Outbox) {
      ClusterJobRecord &J = Jobs[O.ClusterId];
      FCL_CHECK(!J.Done && !J.Rejected, "duplicate cluster job outcome");
      J.Worker = W.Index;
      if (W.OutstandingJobs > 0)
        --W.OutstandingJobs;
      W.OutstandingGroups -= std::min(W.OutstandingGroups, J.MaxGroups);
      ++Messages;
      if (O.Rejected) {
        J.Rejected = true;
        ++RejectedN;
        ++W.Rejected;
        continue;
      }
      J.Done = true;
      J.StartAt = O.StartAt;
      J.EndAt = O.EndAt;
      ++CompletedN;
      ++W.Completed;
      // Cluster latency runs from the *cluster* arrival, so a stolen
      // job's transfer wait stays on its bill.
      W.E2eMs.push_back((O.EndAt - J.ArrivalAt).toMillis());
      if (O.EndAt > LastEnd)
        LastEnd = O.EndAt;
    }
    W.Outbox.clear();
  }
}

void Cluster::stealPass(TimePoint EpochStart) {
  bool Stole = false;
  for (auto &TP : Workers) {
    Worker &Thief = *TP;
    // Only a fully idle worker steals, and only one job per epoch: the
    // queues drain between epochs anyway, and modest steal volume keeps
    // the transfer bill low.
    if (Thief.Eng->readyDepth() != 0 || Thief.Eng->runningJobs() != 0)
      continue;
    Worker *Victim = nullptr;
    for (auto &VP : Workers) {
      if (VP->Index == Thief.Index || VP->Eng->readyDepth() == 0)
        continue;
      if (!Victim || VP->Eng->readyDepth() > Victim->Eng->readyDepth())
        Victim = VP.get();
    }
    if (!Victim)
      continue;
    serve::StolenJob S;
    if (!Victim->Eng->stealQueued(S))
      continue;
    ClusterJobRecord &J = Jobs[S.ClusterId];
    J.Stolen = true;
    J.Worker = Thief.Index;
    if (Victim->OutstandingJobs > 0)
      --Victim->OutstandingJobs;
    Victim->OutstandingGroups -= std::min(Victim->OutstandingGroups,
                                          J.MaxGroups);
    ++Thief.OutstandingJobs;
    Thief.OutstandingGroups += J.MaxGroups;
    ++Thief.StolenIn;
    // The transfer costs a simulated link hop plus deterministic jitter
    // (master RNG - workers never draw randomness).
    Duration Jitter = Duration::nanoseconds(static_cast<int64_t>(
        MasterRng.nextBelow(
            static_cast<uint64_t>(Cfg.LinkLatency.nanos()) + 1)));
    Thief.Eng->injectJob(S.ClusterId, S.TemplateIdx, S.Stream,
                         EpochStart + Cfg.LinkLatency + Jitter);
    ++StealsN;
    ++StolenN;
    ++Messages;
    Stole = true;
  }
  if (Stole)
    ++RebalanceEpochsN;
}

void Cluster::workerMain(Worker &W) {
  race::Analyzer &A = race::Analyzer::instance();
  uint64_t Seen = 0;
  for (;;) {
    uint64_t E = 0;
    if (!Barrier.awaitEpoch(Seen, E))
      return;
    Seen = E;
    // The barrier's release edge: everything the master did before
    // releasing this epoch happened-before everything this quantum runs.
    if (RacesOn)
      A.hbJoin(epochReleaseChan());
    {
      FCL_PROF_SCOPE("cluster.worker_epoch");
      W.Eng->advanceTo(TimePoint() + Cfg.Quantum * static_cast<int64_t>(E));
    }
    // The park edge: this quantum's work happens-before the master phase
    // that observes us parked.
    if (RacesOn)
      A.hbPublish(epochParkChan());
  }
}

ClusterReport Cluster::run() {
  race::Analyzer &A = race::Analyzer::instance();
  RacesOn = Cfg.Worker.Races != check::Policy::Off;
  race::armAnalyzer(Cfg.Worker.Races);
  drawArrivals();

  std::vector<std::thread> Threads;
  Threads.reserve(Workers.size());
  for (auto &W : Workers)
    Threads.emplace_back([this, WP = W.get()] { workerMain(*WP); });

  size_t NextDraw = 0;
  uint64_t EpochIdx = 0;
  for (;;) {
    Barrier.masterAwaitParked();
    FCL_PROF_SCOPE("cluster.master_phase");
    if (RacesOn)
      A.hbJoin(epochParkChan());
    drainOutboxes();
    bool AllInjected = NextDraw == Draws.size();
    bool AllQuiet = true;
    for (auto &W : Workers)
      AllQuiet = AllQuiet && W->Eng->quiescent();
    if (AllInjected && AllQuiet)
      break;
    FCL_CHECK(EpochsRun < ClusterConfig::MaxEpochs,
              "cluster failed to quiesce");
    TimePoint EpochStart =
        TimePoint() + Cfg.Quantum * static_cast<int64_t>(EpochIdx);
    TimePoint EpochEnd = EpochStart + Cfg.Quantum;
    if (Cfg.Steal && Cfg.Workers > 1)
      stealPass(EpochStart);
    while (NextDraw < Draws.size() && Draws[NextDraw].At < EpochEnd) {
      injectDraw(NextDraw, Draws[NextDraw], placeJob(Draws[NextDraw]));
      ++NextDraw;
    }
    if (RacesOn)
      A.hbPublish(epochReleaseChan());
    ++EpochIdx;
    ++EpochsRun;
    Barrier.releaseEpoch(EpochIdx);
  }
  Barrier.stopAll();
  for (std::thread &T : Threads)
    T.join();

  // Fill the shared report fields - collecting race findings first - before
  // engine teardown, so the destructors (and the trace merge below) run
  // unanalyzed, mirroring serve::Engine::run.
  ClusterReport Rep;
  {
    std::vector<double> QueueMs, ServiceMs, E2eMs;
    for (const ClusterJobRecord &J : Jobs) {
      if (!J.Done)
        continue;
      QueueMs.push_back(J.queueWaitMs());
      ServiceMs.push_back(J.serviceMs());
      E2eMs.push_back(J.e2eMs());
    }
    serve::fillReportCore(Rep, Cfg.Worker, QueueMs, ServiceMs, E2eMs);
  }

  std::vector<serve::ServeReport> WReps;
  WReps.reserve(Workers.size());
  for (auto &W : Workers) {
    serve::ServeReport R = W->Eng->finish();
    Rep.CheckErrors += R.CheckErrors;
    Rep.CheckWarnings += R.CheckWarnings;
    for (const std::string &L : R.CheckDiags)
      Rep.CheckDiags.push_back(formatString("w%d: %s", W->Index, L.c_str()));
    Rep.ValidationFailures += R.ValidationFailures;
    WReps.push_back(std::move(R));
  }

  if (Cfg.Worker.Tracer)
    for (auto &W : Workers)
      Cfg.Worker.Tracer->mergeFrom(*W->Trace,
                                   formatString("w%d ", W->Index));

  for (const ClusterJobRecord &J : Jobs)
    FCL_CHECK(J.Done || J.Rejected, "cluster job lost in flight");
  finalize(Rep, WReps);
  return Rep;
}

void Cluster::finalize(ClusterReport &Rep,
                       const std::vector<serve::ServeReport> &WReps) {
  Rep.Workers = Cfg.Workers;
  Rep.PlacementName = placementName(Cfg.Place);
  Rep.Steal = Cfg.Steal;
  Rep.QuantumMs = Cfg.Quantum.toMillis();
  Rep.LinkLatencyUs = Cfg.LinkLatency.toMicros();
  Rep.Submitted = Jobs.size();
  Rep.Rejected = RejectedN;
  Rep.Completed = CompletedN;
  Rep.Stolen = StolenN;
  Rep.MakespanMs = LastEnd.toSeconds() * 1e3;
  if (Rep.MakespanMs > 0)
    Rep.ThroughputJps = static_cast<double>(CompletedN) /
                        (Rep.MakespanMs / 1e3);
  Rep.Epochs = EpochsRun;
  Rep.Messages = Messages;
  Rep.Steals = StealsN;
  Rep.RebalanceEpochs = RebalanceEpochsN;

  for (size_t I = 0; I < Workers.size(); ++I) {
    const Worker &W = *Workers[I];
    WorkerSummary S;
    S.Index = W.Index;
    S.Assigned = W.Assigned;
    S.Completed = W.Completed;
    S.Rejected = W.Rejected;
    S.StolenIn = W.StolenIn;
    S.StolenOut = W.Eng->stolenOut();
    S.GpuBusyMs = WReps[I].GpuBusyMs;
    S.CpuBusyMs = WReps[I].CpuBusyMs;
    if (Rep.MakespanMs > 0) {
      S.GpuUtil = S.GpuBusyMs / Rep.MakespanMs;
      S.CpuUtil = S.CpuBusyMs / Rep.MakespanMs;
    }
    S.E2e = serve::summarizeLatency(W.E2eMs);
    Rep.PerWorker.push_back(S);
  }

  Rep.Stats.add("cluster_jobs_submitted", Rep.Submitted);
  Rep.Stats.add("cluster_jobs_rejected", Rep.Rejected);
  Rep.Stats.add("cluster_jobs_completed", Rep.Completed);
  Rep.Stats.add("cluster_jobs_stolen", Rep.Stolen);
  Rep.Stats.add("cluster_epochs", Rep.Epochs);
  Rep.Stats.add("cluster_messages", Rep.Messages);
  Rep.Stats.add("cluster_steals", Rep.Steals);
  Rep.Stats.add("cluster_rebalance_epochs", Rep.RebalanceEpochs);
  Rep.Stats.set("cluster_makespan_ms", Rep.MakespanMs);
  Rep.Stats.set("cluster_throughput_jps", Rep.ThroughputJps);
  Rep.Stats.set("cluster_e2e_p95_ms", Rep.E2e.P95);
  // Compound (DAG) job accounting, summed over workers; emitted only when
  // DAG jobs ran so plain mixes keep their pre-dag report bytes.
  {
    uint64_t DagJobs = 0, DagNodes = 0, DagTransfers = 0, DagPcieBytes = 0,
             DagSkipped = 0, DagSaved = 0;
    for (const serve::ServeReport &R : WReps) {
      DagJobs += R.DagJobs;
      DagNodes += R.DagNodes;
      DagTransfers += R.DagTransfers;
      DagPcieBytes += R.DagPcieBytes;
      DagSkipped += R.DagTransfersSkipped;
      DagSaved += R.DagBytesSaved;
    }
    if (DagJobs) {
      Rep.Stats.add("cluster_dag_jobs", DagJobs);
      Rep.Stats.add("cluster_dag_nodes", DagNodes);
      Rep.Stats.add("cluster_dag_transfers", DagTransfers);
      Rep.Stats.add("cluster_dag_pcie_bytes", DagPcieBytes);
      Rep.Stats.add("cluster_dag_transfers_skipped", DagSkipped);
      Rep.Stats.add("cluster_dag_bytes_saved", DagSaved);
    }
  }
  for (const WorkerSummary &S : Rep.PerWorker) {
    // Zero-padded so the registry's lexicographic order is worker order.
    Rep.Stats.add(formatString("cluster_w%02d_completed", S.Index),
                  S.Completed);
    Rep.Stats.add(formatString("cluster_w%02d_stolen_in", S.Index),
                  S.StolenIn);
    Rep.Stats.set(formatString("cluster_w%02d_gpu_util", S.Index), S.GpuUtil);
    Rep.Stats.set(formatString("cluster_w%02d_cpu_util", S.Index), S.CpuUtil);
  }

  Rep.Jobs = Jobs;
}

//===- serve/Engine.cpp - Multi-tenant serving engine ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "dag/DagExec.h"
#include "prof/Profiler.h"
#include "race/Bridge.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <string_view>

using namespace fcl;
using namespace fcl::serve;

std::string EngineConfig::validate() const {
  if (Streams < 1)
    return formatString("--streams must be >= 1 (got %d)", Streams);
  if (Streams > MaxStreams)
    return formatString("--streams must be <= %d (got %d)", MaxStreams,
                        Streams);
  if (Horizon <= Duration::zero())
    return formatString("--duration must be > 0 s (got %g)",
                        Horizon.toSeconds());
  if (Horizon > Duration::seconds(1e6))
    return formatString("--duration must be <= 1e+06 s (got %g)",
                        Horizon.toSeconds());
  if (Arrival.Kind != ArrivalKind::Closed) {
    double Expected = static_cast<double>(Streams) * Arrival.RatePerSec *
                      Horizon.toSeconds();
    if (Expected > MaxOpenLoopArrivals)
      return formatString("expected open-loop arrivals (--streams x rate x "
                          "--duration) must be <= %g (got %g)",
                          MaxOpenLoopArrivals, Expected);
  }
  if (QueueDepth < 1)
    return formatString("--queue-depth must be >= 1 (got %d)", QueueDepth);
  if (SloMs < 0)
    return formatString("--slo-ms must be >= 0 (got %g)", SloMs);
  // A negative --threshold wraps to a huge unsigned count that would make
  // every job small; no real job has 2^63 work-groups.
  if (LargeThreshold > static_cast<uint64_t>(INT64_MAX))
    return formatString("--threshold must be >= 0 (got %lld)",
                        static_cast<long long>(LargeThreshold));
  return "";
}

Engine::Engine(EngineConfig C) : Cfg(std::move(C)) {
  std::string Invalid = Cfg.validate();
  FCL_CHECK(Invalid.empty(), Invalid.c_str());
  Templates = jobTemplates(Cfg.Mix);
  if (Cfg.Mode == mcl::ExecMode::Functional)
    for (const JobTemplate &T : Templates)
      Hosts.emplace_back(T.W);
  Ctx = std::make_unique<mcl::Context>(Cfg.M, Cfg.Mode);
  Ctx->setTracer(Cfg.Tracer);
  if (Cfg.Arrival.Kind == ArrivalKind::Closed) {
    Gens.reserve(Cfg.Streams);
    for (int S = 0; S < Cfg.Streams; ++S)
      Gens.emplace_back(Cfg.Seed, S, Templates);
  }
  // The threading plan for the engine is one mutex around all queue and
  // lease state: every externally-entered callback declares this section
  // and the race analyzer checks that the shared structures stay inside.
  static uint64_t NextRaceId = 0;
  RaceSec = "serve.engine#" + std::to_string(NextRaceId++);
  GpuLeaseName = RaceSec + ".gpu";
  CpuLeaseName = RaceSec + ".cpu";
  ReadyObj = RaceSec + ".ready";
}

Engine::~Engine() = default;

void Engine::scheduleClosedLoopNext(int Stream, Duration Delay) {
  TimePoint At = Ctx->now() + Delay;
  if (At - TimePoint() > Cfg.Horizon)
    return; // The stream's session ends inside the admission window.
  const JobTemplate &T = Gens[Stream].pickTemplate();
  injectJob(NextId, static_cast<int>(&T - Templates.data()), Stream, At);
}

void Engine::sampleQueueDepth() {
  if (Cfg.Tracer)
    Cfg.Tracer->counter("Serve queue depth", Ctx->now(),
                        static_cast<double>(Ready.size()));
}

void Engine::onArrival(Req *R) {
  FCL_PROF_SCOPE("serve.admission");
  race::Section RaceS(RaceSec);
  retireQuiescent();
  R->ArrivalAt = Ctx->now();
  ++Submitted;
  if (Ready.size() >= static_cast<size_t>(Cfg.QueueDepth)) {
    // Backpressure: the admission queue is full, shed the request.
    R->Rejected = true;
    R->Placement = "rejected";
    ++RejectedN;
    if (Cfg.Tracer)
      Cfg.Tracer->record("Serve admission", "reject", Ctx->now(), Ctx->now(),
                         formatString("req %llu stream %d (%s)",
                                      static_cast<unsigned long long>(R->Id),
                                      R->Stream, R->T->W.Name.c_str()));
    if (Cfg.Arrival.Kind == ArrivalKind::Closed)
      scheduleClosedLoopNext(R->Stream, Gens[R->Stream].think(Cfg.Arrival));
    emitOutcome(R);
    return;
  }
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "push");
  Ready.push_back(R);
  sampleQueueDepth();
  dispatch();
}

Engine::Req *Engine::popHead() {
  if (Ready.empty())
    return nullptr;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "popHead");
  Req *R = Ready.front();
  Ready.pop_front();
  sampleQueueDepth();
  return R;
}

Engine::Req *Engine::takeFirst(bool WantLarge) {
  for (auto It = Ready.begin(); It != Ready.end(); ++It) {
    // Compound jobs need both devices at once; they only ever start from
    // the queue head (startDag), never as single-device picks.
    if ((*It)->T->Dag)
      continue;
    if ((*It)->Large == WantLarge) {
      if (race::Analyzer::enabled())
        race::Analyzer::instance().sharedWrite(ReadyObj, "takeFirst");
      Req *R = *It;
      Ready.erase(It);
      sampleQueueDepth();
      return R;
    }
  }
  return nullptr;
}

bool Engine::headIsDag() const {
  return !Ready.empty() && Ready.front()->T->Dag != nullptr;
}

void Engine::dispatch() {
  FCL_PROF_SCOPE("serve.dispatch");
  race::Section RaceS(RaceSec);
  switch (Cfg.P) {
  case Policy::FifoExclusive:
    // Status quo: the head-of-line job gets the whole pair, strictly FIFO.
    if (!GpuJob && !CpuJob)
      if (Req *R = popHead())
        R->T->Dag ? startDag(R) : startCoop(R);
    break;
  case Policy::DeviceAffine:
    // A compound head job claims the whole pair when it is free; the DAG
    // executor does its own per-node placement, so affinity classes do not
    // apply to it.
    if (!GpuJob && !CpuJob && headIsDag())
      startDag(popHead());
    // Strict pinning: large jobs queue for the GPU, small jobs for the
    // CPU; neither class can use the other device even when it idles.
    if (!GpuJob)
      if (Req *R = takeFirst(/*WantLarge=*/true))
        startSingle(R, /*OnGpu=*/true, /*Backfill=*/false);
    if (!CpuJob)
      if (Req *R = takeFirst(/*WantLarge=*/false))
        startSingle(R, /*OnGpu=*/false, /*Backfill=*/false);
    break;
  case Policy::FluidicCorun:
    // A compound head job waits for the whole pair (CPU backfill below
    // keeps running meanwhile); otherwise the head job runs cooperatively
    // on the pair and whole small jobs backfill the CPU while its CPU side
    // is idle.
    if (!GpuJob && !CpuJob && headIsDag())
      startDag(popHead());
    if (!GpuJob && !headIsDag())
      if (Req *R = popHead())
        startCoop(R);
    if (!CpuJob && !CorunCpuBusy)
      if (Req *R = takeFirst(/*WantLarge=*/false))
        startSingle(R, /*OnGpu=*/false, /*Backfill=*/true);
    break;
  }
}

void Engine::startDag(Req *R) {
  R->StartAt = Ctx->now();
  R->Placement = "dag";
  ++DagN;
  // A compound job owns both devices for its duration. Leases are taken
  // before start(): the job's set-up is a chain of host steps, and other
  // completions (which dispatch again) fire between them.
  takeLease(R, /*OnGpu=*/true);
  takeLease(R, /*OnGpu=*/false);
  R->Exec = std::make_unique<dag::DagJobExec>(*Ctx, R->T->W, *R->T->Dag,
                                              Cfg.DagPlace, hostFor(R),
                                              Cfg.Validate, &DagTotals,
                                              Cfg.Tracer);
  R->Exec->start([this, R] { jobDone(R); });
}

void Engine::startCoop(Req *R) {
  R->StartAt = Ctx->now();
  R->Placement = Cfg.P == Policy::FifoExclusive ? "pair" : "corun";
  ++CoopN;
  // Leases are taken before start(): the job's set-up is a chain of host
  // steps (API overheads), and other completions, which dispatch again,
  // fire between them.
  takeLease(R, /*OnGpu=*/true);
  if (Cfg.P == Policy::FifoExclusive)
    takeLease(R, /*OnGpu=*/false);
  auto Exec = std::make_unique<CoopJobExec>(*Ctx, R->T->W, Cfg.FclOpts,
                                            hostFor(R), Cfg.Validate,
                                            RaceSec);
  if (Cfg.P == Policy::FluidicCorun)
    Exec->runtime().setChunkYield([this](std::function<void()> Resume) {
      onChunkBoundary(std::move(Resume));
    });
  R->Exec = std::move(Exec);
  R->Exec->start([this, R] { jobDone(R); });
}

void Engine::startSingle(Req *R, bool OnGpu, bool Backfill) {
  R->StartAt = Ctx->now();
  R->Placement = Backfill ? "cpu-backfill" : (OnGpu ? "gpu" : "cpu");
  if (OnGpu) {
    ++GpuSingleN;
  } else {
    ++CpuSingleN;
    if (Backfill)
      ++BackfillN;
  }
  takeLease(R, OnGpu);
  R->Exec = std::make_unique<SingleJobExec>(
      *Ctx, OnGpu ? Ctx->gpu() : Ctx->cpu(), R->T->W, hostFor(R),
      Cfg.Validate, RaceSec);
  R->Exec->start([this, R] { jobDone(R); });
}

void Engine::takeLease(Req *R, bool OnGpu) {
  (OnGpu ? GpuJob : CpuJob) = R;
  (OnGpu ? GpuLeaseStart : CpuLeaseStart) = Ctx->now();
  if (race::Analyzer::enabled())
    race::Analyzer::instance().leaseAcquire(
        OnGpu ? GpuLeaseName : CpuLeaseName,
        formatString("req %llu", static_cast<unsigned long long>(R->Id)));
}

void Engine::releaseLease(bool OnGpu) {
  (OnGpu ? GpuBusyNs : CpuBusyNs) +=
      (Ctx->now() - (OnGpu ? GpuLeaseStart : CpuLeaseStart)).nanos();
  (OnGpu ? GpuJob : CpuJob) = nullptr;
  if (race::Analyzer::enabled())
    race::Analyzer::instance().leaseRelease(OnGpu ? GpuLeaseName
                                                  : CpuLeaseName);
}

void Engine::setCorunCpuBusy(bool Busy) {
  if (Busy == CorunCpuBusy)
    return;
  if (Busy) {
    CorunCpuStart = Ctx->now();
  } else {
    CorunCpuNs += (Ctx->now() - CorunCpuStart).nanos();
  }
  CorunCpuBusy = Busy;
}

void Engine::onChunkBoundary(std::function<void()> Resume) {
  FCL_PROF_SCOPE("serve.chunk_yield");
  race::Section RaceS(RaceSec);
  ++ChunkYields;
  // The cooperative CPU side is now idle: between subkernel chunks it
  // holds no partial state, so the CPU can be lent out whole.
  setCorunCpuBusy(false);
  if (CpuJob) {
    // A backfill job occupies the CPU; park the resume until it finishes.
    PendingResumes.push_back(std::move(Resume));
    return;
  }
  if (Req *S = takeFirst(/*WantLarge=*/false)) {
    PendingResumes.push_back(std::move(Resume));
    startSingle(S, /*OnGpu=*/false, /*Backfill=*/true);
    return;
  }
  // Nothing to backfill: continue the cooperative CPU side immediately.
  setCorunCpuBusy(true);
  Resume();
}

void Engine::drainResumes() {
  race::Section RaceS(RaceSec);
  if (PendingResumes.empty())
    return;
  std::vector<std::function<void()>> Rs = std::move(PendingResumes);
  PendingResumes.clear();
  // The cooperative CPU side gets priority over further backfill so a
  // stream of short jobs cannot starve the head job's CPU share; the next
  // chunk boundary re-opens the backfill window.
  setCorunCpuBusy(true);
  for (std::function<void()> &Fn : Rs)
    Fn();
}

void Engine::jobDone(Req *R) {
  FCL_PROF_SCOPE("serve.callback");
  race::Section RaceS(RaceSec);
  retireQuiescent();
  R->EndAt = Ctx->now();
  R->Done = true;
  ++CompletedN;
  if (R->Exec->validationFailed())
    ++ValidationFailuresN;
  if (R->EndAt > LastEnd)
    LastEnd = R->EndAt;

  if (Cfg.Tracer) {
    std::string Detail =
        formatString("stream %d, %s, %llu groups, %s", R->Stream,
                     R->Large ? "large" : "small",
                     static_cast<unsigned long long>(R->T->MaxGroups),
                     R->Placement);
    std::string Name = formatString(
        "%s #%llu", R->T->W.Name.c_str(),
        static_cast<unsigned long long>(R->Id));
    bool OnGpu = GpuJob == R;
    bool OnCpu = CpuJob == R || std::string_view(R->Placement) == "cpu" ||
                 std::string_view(R->Placement) == "cpu-backfill";
    if (OnGpu)
      Cfg.Tracer->record("Serve GPU", Name, R->StartAt, R->EndAt, Detail);
    if (OnCpu)
      Cfg.Tracer->record("Serve CPU", Name, R->StartAt, R->EndAt, Detail);
  }

  bool WasCoop = GpuJob == R && (Cfg.P != Policy::DeviceAffine);
  bool WasBackfill = std::string_view(R->Placement) == "cpu-backfill";
  if (GpuJob == R)
    releaseLease(/*OnGpu=*/true);
  if (CpuJob == R)
    releaseLease(/*OnGpu=*/false);
  if (WasCoop && Cfg.P == Policy::FluidicCorun) {
    // The cooperative job is gone: close its CPU span and drop any resumes
    // still parked for it (they would no-op anyway).
    setCorunCpuBusy(false);
    PendingResumes.clear();
  }

  if (Cfg.Arrival.Kind == ArrivalKind::Closed)
    scheduleClosedLoopNext(R->Stream, Gens[R->Stream].think(Cfg.Arrival));

  emitOutcome(R);
  if (WasBackfill)
    drainResumes();
  dispatch();
  // Queued for retirement only now: R's own completion chain is still on
  // the stack, and a later callback must find it quiescent first.
  Retiring.push_back(R);
}

HostData *Engine::hostFor(const Req *R) {
  if (Hosts.empty())
    return nullptr;
  return &Hosts[static_cast<size_t>(R->TemplateIdx)];
}

void Engine::retireQuiescent() {
  std::erase_if(Retiring, [this](Req *R) {
    if (!R->Exec->quiescent())
      return false;
    harvestChecks(*R);
    R->Exec.reset();
    return true;
  });
}

void Engine::harvestChecks(const Req &R) {
  fluidicl::Runtime *RT = R.Exec->fclRuntime();
  if (Cfg.FclOpts.Check == check::Policy::Off || !RT)
    return;
  // Fires the run-finish invariants (scratch leaks, pool accounting) while
  // the sink is still collectable; the destructor's finish() is then a
  // no-op drain.
  RT->finish();
  const check::DiagSink &S = RT->diagSink();
  CheckErrorsN += S.errorCount();
  CheckWarningsN += S.warningCount();
  for (const check::Diag &D : S.diags())
    CheckDiags.emplace_back(R.Id, D.str());
}

void Engine::emitOutcome(Req *R) {
  if (!Outcome)
    return;
  JobOutcome O;
  O.ClusterId = R->ClusterId;
  O.Rejected = R->Rejected;
  O.ArrivalAt = R->ArrivalAt;
  O.StartAt = R->StartAt;
  O.EndAt = R->EndAt;
  O.Placement = R->Placement;
  O.Large = R->Large;
  Outcome(O);
}

void Engine::setOutcomeFn(std::function<void(const JobOutcome &)> Fn) {
  Outcome = std::move(Fn);
}

void Engine::injectJob(uint64_t ClusterId, int TemplateIdx, int Stream,
                       TimePoint At) {
  FCL_CHECK(TemplateIdx >= 0 &&
                static_cast<size_t>(TemplateIdx) < Templates.size(),
            "job template index out of range");
  auto Owned = std::make_unique<Req>();
  Req *R = Owned.get();
  R->Id = NextId++;
  R->ClusterId = ClusterId;
  R->TemplateIdx = TemplateIdx;
  R->Stream = Stream;
  R->T = &Templates[TemplateIdx];
  R->Large = R->T->MaxGroups >= Cfg.LargeThreshold;
  Requests.push_back(std::move(Owned));
  Ctx->simulator().scheduleAt(At, [this, R] { onArrival(R); });
}

bool Engine::stealQueued(StolenJob &Out) {
  if (Ready.empty())
    return false;
  // The master holds this engine's would-be lock (the fabric barrier is
  // the real mutual exclusion; the section declares it to the analyzer).
  race::Section RaceS(RaceSec);
  if (race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(ReadyObj, "steal");
  // Take the newest arrival: the head of the queue is next to start
  // locally, so migrating the tail preserves FIFO fairness.
  Req *R = Ready.back();
  Ready.pop_back();
  sampleQueueDepth();
  R->Stolen = true;
  R->Placement = "stolen";
  ++StolenOutN;
  Out.ClusterId = R->ClusterId;
  Out.TemplateIdx = R->TemplateIdx;
  Out.Stream = R->Stream;
  return true;
}

void Engine::advanceTo(TimePoint Deadline) {
  Ctx->simulator().runUntil(Deadline);
}

int Engine::runningJobs() const {
  int N = 0;
  if (GpuJob)
    ++N;
  if (CpuJob && CpuJob != GpuJob)
    ++N;
  return N;
}

bool Engine::quiescent() const {
  // Judged by what is in flight, not by the simulator's queue: superseded
  // GPU checkpoint events stay queued after their launch ends, and do
  // nothing when they fire.
  if (!Ready.empty() || GpuJob || CpuJob || Submitted != Requests.size())
    return false;
  return std::all_of(Retiring.begin(), Retiring.end(),
                     [](const Req *R) { return R->Exec->quiescent(); });
}

size_t Engine::liveExecutors() const {
  size_t N = 0;
  for (const auto &R : Requests)
    if (R->Exec)
      ++N;
  return N;
}

ServeReport Engine::finish() {
  ServeReport Report = finalize();
  // The drained run left every executor quiescent; those no engine
  // callback retired (the last jobs') go now, after the report, so the
  // race analyzer is disarmed as it was for the rest of the teardown.
  for (Req *R : Retiring)
    R->Exec.reset();
  Retiring.clear();
  return Report;
}

ServeReport Engine::run() {
  race::armAnalyzer(Cfg.Races);
  if (Cfg.Arrival.Kind == ArrivalKind::Closed) {
    for (int S = 0; S < Cfg.Streams; ++S)
      scheduleClosedLoopNext(S, Gens[S].initialPhase(Cfg.Arrival));
  } else {
    // Injected in draw order, so request ids and the schedule order of
    // equal-time arrivals are stream-major.
    for (const Arrival &A : drawOpenLoop(Cfg.Seed, Cfg.Streams, Cfg.Arrival,
                                         Cfg.Horizon, Templates))
      injectJob(NextId, A.TemplateIdx, A.Stream, A.At);
  }
  // Drain everything: arrivals, jobs, trailing cooperative transfers.
  Ctx->simulator().run();
  return finish();
}

void fcl::serve::fillReportCore(ReportCore &R, const EngineConfig &Cfg,
                                const std::vector<double> &QueueMs,
                                const std::vector<double> &ServiceMs,
                                const std::vector<double> &E2eMs) {
  R.RacesEnabled = Cfg.Races != check::Policy::Off;
  if (R.RacesEnabled) {
    check::DiagSink Sink(check::Policy::Warn);
    race::disarmAnalyzer(Sink);
    R.RaceFindings = Sink.diags().size();
    for (const check::Diag &D : Sink.diags())
      R.RaceDiags.push_back(D.str());
  }
  R.PolicyName = policyName(Cfg.P);
  R.ArrivalDesc = Cfg.Arrival.str();
  R.Mix = mixName(Cfg.Mix);
  R.Machine = Cfg.MachineName;
  R.Seed = Cfg.Seed;
  R.Streams = Cfg.Streams;
  R.QueueDepth = Cfg.QueueDepth;
  R.LargeThreshold = Cfg.LargeThreshold;
  R.HorizonMs = Cfg.Horizon.toMillis();
  R.QueueWait = summarizeLatency(QueueMs);
  R.Service = summarizeLatency(ServiceMs);
  R.E2e = summarizeLatency(E2eMs);
  R.SloChecked = Cfg.SloMs > 0;
  R.SloMs = Cfg.SloMs;
  if (R.SloChecked)
    for (double V : E2eMs)
      if (V > Cfg.SloMs)
        ++R.SloViolations;
  R.Validated = Cfg.Validate && Cfg.Mode == mcl::ExecMode::Functional;
  R.CheckEnabled = Cfg.FclOpts.Check != check::Policy::Off;
}

void Engine::collectChecks(ServeReport &Rep) {
  if (Cfg.FclOpts.Check == check::Policy::Off)
    return;
  for (Req *R : Retiring)
    harvestChecks(*R);
  // Executors retire in completion order; the report lists diagnostics by
  // request.
  std::stable_sort(
      CheckDiags.begin(), CheckDiags.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; });
  Rep.CheckErrors = CheckErrorsN;
  Rep.CheckWarnings = CheckWarningsN;
  for (auto &[Id, Line] : CheckDiags)
    Rep.CheckDiags.push_back(std::move(Line));
  CheckDiags.clear();
}

ServeReport Engine::finalize() {
  ServeReport Rep;
  collectChecks(Rep);
  std::vector<double> QueueMs, ServiceMs, E2eMs, SmallMs, LargeMs;
  for (const auto &R : Requests) {
    RequestRecord Rec;
    Rec.Id = R->Id;
    Rec.Stream = R->Stream;
    Rec.Workload = R->T->W.Name;
    Rec.MaxGroups = R->T->MaxGroups;
    Rec.Large = R->Large;
    Rec.Rejected = R->Rejected;
    Rec.Placement = R->Placement;
    Rec.ArrivalAt = R->ArrivalAt;
    Rec.StartAt = R->StartAt;
    Rec.EndAt = R->EndAt;
    Rep.Requests.push_back(Rec);
    if (R->Rejected)
      continue;
    if (R->Stolen)
      continue; // Migrated to another worker; the thief accounts for it.
    FCL_CHECK(R->Done, "admitted request never completed");
    QueueMs.push_back(Rec.queueWaitMs());
    ServiceMs.push_back(Rec.serviceMs());
    E2eMs.push_back(Rec.e2eMs());
    (R->Large ? LargeMs : SmallMs).push_back(Rec.e2eMs());
  }
  fillReportCore(Rep, Cfg, QueueMs, ServiceMs, E2eMs);
  Rep.Submitted = Submitted;
  Rep.Rejected = RejectedN;
  Rep.Completed = CompletedN;
  Rep.SmallE2e = summarizeLatency(SmallMs);
  Rep.LargeE2e = summarizeLatency(LargeMs);
  Rep.SmallCompleted = SmallMs.size();
  Rep.LargeCompleted = LargeMs.size();

  Rep.MakespanMs = (LastEnd - TimePoint()).toMillis();
  Rep.ThroughputRps = Rep.MakespanMs > 0
                          ? static_cast<double>(CompletedN) /
                                (Rep.MakespanMs / 1e3)
                          : 0.0;
  Rep.GpuBusyMs = static_cast<double>(GpuBusyNs) * 1e-6;
  Rep.CorunCpuMs = static_cast<double>(CorunCpuNs) * 1e-6;
  Rep.CpuBusyMs = static_cast<double>(CpuBusyNs) * 1e-6 + Rep.CorunCpuMs;
  Rep.GpuUtil = Rep.MakespanMs > 0 ? Rep.GpuBusyMs / Rep.MakespanMs : 0.0;
  Rep.CpuUtil = Rep.MakespanMs > 0 ? Rep.CpuBusyMs / Rep.MakespanMs : 0.0;
  Rep.CoopJobs = CoopN;
  Rep.GpuJobs = GpuSingleN;
  Rep.CpuJobs = CpuSingleN;
  Rep.BackfillJobs = BackfillN;
  Rep.ChunkYields = ChunkYields;
  if (DagN) {
    Rep.DagPlacement = dag::placementName(Cfg.DagPlace);
    Rep.DagJobs = DagN;
    Rep.DagNodes = DagTotals.Nodes;
    Rep.DagGpuNodes = DagTotals.GpuNodes;
    Rep.DagCpuNodes = DagTotals.CpuNodes;
    Rep.DagTransfers = DagTotals.Transfers;
    Rep.DagTransferBytes = DagTotals.TransferBytes;
    Rep.DagPcieBytes = DagTotals.PcieBytes;
    Rep.DagTransfersSkipped = DagTotals.TransfersSkipped;
    Rep.DagBytesSaved = DagTotals.BytesSaved;
  }
  Rep.ValidationFailures = ValidationFailuresN;

  // Mirror into the fcl::stats registry (the observability view; the
  // tool's --stats-json embeds it verbatim).
  stats::Registry &St = Rep.Stats;
  St.add("serve_submitted", Submitted);
  St.add("serve_rejected", RejectedN);
  St.add("serve_completed", CompletedN);
  St.add("serve_jobs_coop", CoopN);
  St.add("serve_jobs_gpu_single", GpuSingleN);
  St.add("serve_jobs_cpu_single", CpuSingleN);
  St.add("serve_jobs_backfill", BackfillN);
  St.add("serve_chunk_yields", ChunkYields);
  St.add("serve_slo_violations", Rep.SloViolations);
  St.add("serve_validation_failures", ValidationFailuresN);
  // DAG counters only when compound jobs ran: plain mixes keep their
  // pre-dag report bytes.
  if (DagN) {
    St.add("serve_dag_jobs", DagN);
    St.add("serve_dag_nodes", DagTotals.Nodes);
    St.add("serve_dag_nodes_gpu", DagTotals.GpuNodes);
    St.add("serve_dag_nodes_cpu", DagTotals.CpuNodes);
    St.add("serve_dag_transfers", DagTotals.Transfers);
    St.add("serve_dag_transfer_bytes", DagTotals.TransferBytes);
    St.add("serve_dag_pcie_bytes", DagTotals.PcieBytes);
    St.add("serve_dag_transfers_skipped", DagTotals.TransfersSkipped);
    St.add("serve_dag_bytes_saved", DagTotals.BytesSaved);
  }
  // Analysis counters only when something was found: a clean analyzed run
  // must keep the exact bytes of an unanalyzed one.
  if (Rep.CheckErrors || Rep.CheckWarnings) {
    St.add("serve_check_errors", Rep.CheckErrors);
    St.add("serve_check_warnings", Rep.CheckWarnings);
  }
  if (Rep.RaceFindings)
    St.add("serve_race_findings", Rep.RaceFindings);
  St.set("serve_e2e_p50_ms", Rep.E2e.P50);
  St.set("serve_e2e_p95_ms", Rep.E2e.P95);
  St.set("serve_e2e_p99_ms", Rep.E2e.P99);
  St.set("serve_queue_wait_p95_ms", Rep.QueueWait.P95);
  St.set("serve_service_p95_ms", Rep.Service.P95);
  St.set("serve_makespan_ms", Rep.MakespanMs);
  St.set("serve_throughput_rps", Rep.ThroughputRps);
  St.set("serve_gpu_util", Rep.GpuUtil);
  St.set("serve_cpu_util", Rep.CpuUtil);
  St.add("sim_events_executed", Ctx->simulator().eventsExecuted());
  return Rep;
}

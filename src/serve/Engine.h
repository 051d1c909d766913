//===- serve/Engine.h - Multi-tenant serving engine -------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving engine: admits N concurrent client streams of kernel-launch
/// jobs, queues them through a bounded admission queue (arrivals beyond
/// the depth limit are rejected - backpressure), and dispatches them over
/// the simulated CPU+GPU pair under a pluggable Policy.
///
/// Devices are granted as job-level leases: at most one job computes on a
/// device at a time (the devices themselves model no cross-queue kernel
/// contention, so the engine is the arbiter). Under FluidicCorun the
/// cooperative head job leases the GPU while its CPU side yields between
/// subkernel chunks through fluidicl::Runtime's chunk-yield hook; the
/// engine slots whole short jobs into those yield windows ("backfill") and
/// resumes the cooperative CPU side when they finish.
///
/// Everything runs as completion callbacks on the deterministic simulator:
/// same seed, same configuration => byte-identical report JSON.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_ENGINE_H
#define FCL_SERVE_ENGINE_H

#include "dag/Residency.h"
#include "fluidicl/Options.h"
#include "hw/Machine.h"
#include "mcl/Context.h"
#include "serve/JobExec.h"
#include "serve/LoadGen.h"
#include "serve/Metrics.h"
#include "serve/Policy.h"
#include "trace/Tracer.h"

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fcl {
namespace serve {

struct EngineConfig {
  hw::Machine M = hw::paperMachine();
  std::string MachineName = "paper";
  mcl::ExecMode Mode = mcl::ExecMode::TimingOnly;
  Policy P = Policy::FifoExclusive;
  /// Concurrent client streams.
  int Streams = 8;
  ArrivalSpec Arrival;
  /// Admission window: no arrivals are issued after this point; admitted
  /// jobs run to completion.
  Duration Horizon = Duration::milliseconds(250);
  uint64_t Seed = 1;
  /// Bounded admission queue depth; arrivals beyond it are rejected.
  int QueueDepth = 64;
  /// Jobs with >= this many work-groups (max over their launches) are
  /// "large" for DeviceAffine pinning and FluidicCorun backfill class.
  uint64_t LargeThreshold = 64;
  MixKind Mix = MixKind::Mixed;
  /// How compound (DAG) jobs place their nodes on the pair: residency-
  /// scored (transfer-skipping) or the residency-blind independent-jobs
  /// baseline. Only DAG-bearing mixes (pipeline) are affected.
  dag::Placement DagPlace = dag::Placement::Residency;
  fluidicl::Options FclOpts;
  /// fcl::race integration: Warn/Fail enable the happens-before analyzer
  /// around the run and collect its findings into the report (Fail makes
  /// the tool exit non-zero when any finding was recorded). The analyzer
  /// never perturbs simulated time, so same-seed reports are byte-identical
  /// with it on or off.
  check::Policy Races = check::Policy::Off;
  /// Validate results against the host reference (functional mode only).
  bool Validate = false;
  /// End-to-end SLO in milliseconds; 0 disables the check.
  double SloMs = 0;
  /// Optional tracer: serve lanes + queue-depth counter track.
  trace::Tracer *Tracer = nullptr;

  /// Caps on the load a configuration may ask for, checked before anything
  /// is allocated: a closed loop holds one generator per stream, and every
  /// open-loop arrival is drawn up front (the largest run in the repo
  /// draws about 192k).
  static constexpr int MaxStreams = 1000000;
  static constexpr double MaxOpenLoopArrivals = 1e7;

  /// Range rules for every field a user sets: empty when the configuration
  /// is valid, else a one-line message naming the tool option. The tools
  /// print it; Engine's constructor FCL_CHECKs it.
  std::string validate() const;
};

/// Fills the report fields every tier shares from \p Cfg and the completed
/// jobs' latency samples (ms): the configuration echo, latency summaries,
/// SLO verdict and analysis switches. With races armed it first stops the
/// fcl::race analyzer and renders its findings into \p R, so call it before
/// any teardown the analyzer must not observe. The cluster master collects
/// them once for all its workers, whose own configurations leave races off.
/// Counts, makespan, validation and check diagnostics are the caller's.
void fillReportCore(ReportCore &R, const EngineConfig &Cfg,
                    const std::vector<double> &QueueMs,
                    const std::vector<double> &ServiceMs,
                    const std::vector<double> &E2eMs);

/// What the cluster master needs to re-inject a stolen queued job into
/// another worker's engine.
struct StolenJob {
  uint64_t ClusterId = 0;
  int TemplateIdx = 0;
  int Stream = 0;
};

/// Completion/rejection record handed to the cluster master's outcome
/// hook. Fired on the worker's thread inside the engine's would-be lock;
/// the hook must only touch that worker's own outbox.
struct JobOutcome {
  uint64_t ClusterId = 0;
  bool Rejected = false;
  TimePoint ArrivalAt;
  TimePoint StartAt;
  TimePoint EndAt;
  const char *Placement = "";
  bool Large = false;
};

/// One engine instance runs one complete serve experiment.
class Engine {
public:
  explicit Engine(EngineConfig Cfg);
  ~Engine();

  /// Draws the load and injects it, runs the simulation to completion and
  /// returns finish()'s report.
  ServeReport run();

  // --- Driving the engine from outside ----------------------------------
  //
  // A cluster master injects its placements and steals, pumps each epoch
  // with advanceTo and ends with finish(), as run() does for serve's own
  // load. The master owns the engine between epochs (workers parked at the
  // fabric barrier) and its worker during one, never both at once.

  /// Installs the completion/rejection hook. Call once, before any
  /// injectJob.
  void setOutcomeFn(std::function<void(const JobOutcome &)> Fn);
  /// Admits a job, the one way a request is built: schedules its arrival
  /// at \p At on this engine's simulator. \p TemplateIdx indexes
  /// jobTemplates(Cfg.Mix); \p ClusterId is the caller's id for the job,
  /// echoed in its JobOutcome and StolenJob.
  void injectJob(uint64_t ClusterId, int TemplateIdx, int Stream,
                 TimePoint At);
  /// Removes the newest still-queued request for migration to another
  /// worker. Returns false when the queue is empty.
  bool stealQueued(StolenJob &Out);
  /// Pumps this engine's simulator up to \p Deadline (the epoch quantum).
  /// Called on the worker's own thread.
  void advanceTo(TimePoint Deadline);
  /// Queued (admitted, not yet started) requests.
  size_t readyDepth() const { return Ready.size(); }
  /// Distinct requests currently holding a device.
  int runningJobs() const;
  /// Queued jobs stolen away from this engine so far.
  uint64_t stolenOut() const { return StolenOutN; }
  /// True when every injected job has arrived and nothing is queued,
  /// running, or still in flight in an executor.
  bool quiescent() const;
  /// Executors alive right now: running jobs plus finished ones whose
  /// trailing work has not yet drained.
  size_t liveExecutors() const;
  const std::vector<JobTemplate> &templates() const { return Templates; }
  /// Teardown once the simulator is drained: drains check diagnostics,
  /// builds the report (collecting race findings if Cfg.Races is on), then
  /// destroys the executors still alive.
  ServeReport finish();

private:
  struct Req {
    uint64_t Id = 0;
    int Stream = 0;
    const JobTemplate *T = nullptr;
    TimePoint ArrivalAt;
    TimePoint StartAt;
    TimePoint EndAt;
    bool Large = false;
    bool Rejected = false;
    bool Done = false;
    const char *Placement = "";
    std::unique_ptr<JobExec> Exec;
    /// The caller's id (injectJob) and T's index in Templates.
    uint64_t ClusterId = 0;
    int TemplateIdx = 0;
    /// Migrated away by stealQueued: excluded from local latency and
    /// completion accounting (the thief worker reports it).
    bool Stolen = false;
  };

  /// Injects \p Stream's next closed-loop request after \p Delay, unless
  /// that falls past the admission window.
  void scheduleClosedLoopNext(int Stream, Duration Delay);
  void onArrival(Req *R);
  void dispatch();
  void startCoop(Req *R);
  /// Starts a compound job: takes both device leases and hands the DAG to
  /// dag::DagJobExec.
  void startDag(Req *R);
  /// True when the next queued request is a compound (DAG) job.
  bool headIsDag() const;
  void startSingle(Req *R, bool OnGpu, bool Backfill);
  /// Grants \p R the GPU or CPU lease from now on.
  void takeLease(Req *R, bool OnGpu);
  /// Ends the GPU or CPU lease, adding its span to the device's busy time.
  void releaseLease(bool OnGpu);
  void jobDone(Req *R);
  /// The host data of \p R's template in functional mode, else null.
  HostData *hostFor(const Req *R);
  /// Destroys every finished request's executor that is now quiescent.
  void retireQuiescent();
  /// Collects the check diagnostics of \p R's cooperative runtime, if any,
  /// before its executor is destroyed.
  void harvestChecks(const Req &R);
  /// fluidicl chunk-yield hook of the active cooperative job (corun only).
  void onChunkBoundary(std::function<void()> Resume);
  void drainResumes();
  void setCorunCpuBusy(bool Busy);
  /// Removes and returns the first queued request with the given class;
  /// null when none matches.
  Req *takeFirst(bool WantLarge);
  Req *popHead();
  void sampleQueueDepth();
  /// Harvests the executors still alive, then moves every harvested check
  /// diagnostic into \p Rep in request order (called after the simulator
  /// is idle).
  void collectChecks(ServeReport &Rep);
  void emitOutcome(Req *R);
  ServeReport finalize();

  EngineConfig Cfg;
  std::vector<JobTemplate> Templates;
  std::unique_ptr<mcl::Context> Ctx;
  /// One generator per stream, for closed loops only: their next request
  /// is drawn when the previous one ends.
  std::vector<StreamGen> Gens;
  std::vector<std::unique_ptr<Req>> Requests;
  std::deque<Req *> Ready;
  /// Finished requests whose executors are still alive. Trailing
  /// cooperative work (DH transfers, aborting GPU waves) may outlast the
  /// client's results; the first engine callback that finds an executor
  /// quiescent destroys it, so a run holds a handful of executors, not one
  /// per completed job.
  std::vector<Req *> Retiring;
  /// One host data per template, filled on first use; empty unless the
  /// run executes kernels functionally.
  std::vector<HostData> Hosts;
  /// Check diagnostics harvested so far, each with its request's id.
  uint64_t CheckErrorsN = 0;
  uint64_t CheckWarningsN = 0;
  std::vector<std::pair<uint64_t, std::string>> CheckDiags;

  // Device leases. A cooperative FifoExclusive job holds both.
  Req *GpuJob = nullptr;
  Req *CpuJob = nullptr;
  TimePoint GpuLeaseStart;
  TimePoint CpuLeaseStart;
  int64_t GpuBusyNs = 0;
  int64_t CpuBusyNs = 0;

  // Cooperative-CPU activity tracking (FluidicCorun): true while the
  // corun job's CPU side is between resume and the next chunk boundary.
  bool CorunCpuBusy = false;
  TimePoint CorunCpuStart;
  int64_t CorunCpuNs = 0;
  /// Deferred resumes of the cooperative CPU side, invoked when the
  /// backfill job occupying the CPU completes. Stale resumes (their
  /// kernel's GPU side finished meanwhile) no-op via their own guards.
  std::vector<std::function<void()>> PendingResumes;

  uint64_t NextId = 0;
  uint64_t Submitted = 0;
  uint64_t RejectedN = 0;
  uint64_t CompletedN = 0;
  uint64_t CoopN = 0;
  uint64_t GpuSingleN = 0;
  uint64_t CpuSingleN = 0;
  uint64_t BackfillN = 0;
  uint64_t DagN = 0;
  dag::DagStats DagTotals;
  uint64_t ChunkYields = 0;
  uint64_t ValidationFailuresN = 0;
  uint64_t StolenOutN = 0;
  TimePoint LastEnd;
  std::function<void(const JobOutcome &)> Outcome;

  /// fcl::race instrumentation names: the would-be engine lock (the
  /// threading plan is one mutex per engine around all queue/lease state)
  /// plus the two device leases and the admission-queue shadow object.
  /// Instance-numbered like fluidicl::Runtime's section.
  std::string RaceSec;
  std::string GpuLeaseName;
  std::string CpuLeaseName;
  std::string ReadyObj;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_ENGINE_H

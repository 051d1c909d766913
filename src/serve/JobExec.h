//===- serve/JobExec.h - Asynchronous per-job executors ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one admitted job (a work::Workload) to completion without ever
/// blocking the simulator: the serve engine drives many jobs concurrently
/// from inside simulator events, so every executor is a completion-callback
/// chain, not a drain loop.
///
///  * CoopJobExec   - the job owns a private fluidicl::Runtime (its own
///    command queues, buffers, version tracker and stats over the shared
///    simulated devices) and executes cooperatively across the CPU+GPU
///    pair via the runtime's async API.
///  * SingleJobExec - the job owns one in-order command queue on a single
///    device; writes, kernels and reads are enqueued back-to-back and the
///    last read's completion finishes the job.
///
/// In functional execution mode both executors can validate their results
/// against their template's host reference, proving that concurrent
/// streams do not corrupt each other's data.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_JOBEXEC_H
#define FCL_SERVE_JOBEXEC_H

#include "fluidicl/Options.h"
#include "fluidicl/Runtime.h"
#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "work/Workload.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace fcl {
namespace serve {

/// The host reference of one job template: its buffers after the
/// template's workload ran on the host from its initial data
/// (work::initHostData, a pure function of the buffer specs). Computed on
/// first use and shared by every validated job of that template; an engine
/// owns one per template, so no lock is needed.
class HostReference {
public:
  explicit HostReference(const work::Workload &W) : W(&W) {}

  const std::vector<std::vector<std::byte>> &get();

private:
  const work::Workload *W;
  std::vector<std::vector<std::byte>> Bufs;
  bool Ready = false;
};

/// Base of the executor shapes (dag::DagJobExec is the third). Lifetime:
/// an executor may outlive its client's results, since trailing
/// cooperative work (DH transfers, aborting GPU waves) still drains on the
/// shared clock. The engine destroys it once quiescent() holds.
class JobExec {
public:
  using DoneFn = std::function<void()>;

  virtual ~JobExec() = default;

  /// Starts the job; \p OnDone fires exactly once, when the client has its
  /// results (trailing cooperative drain may continue afterwards, matching
  /// how the paper measures total running time).
  virtual void start(DoneFn OnDone) = 0;

  /// True once nothing of the started job is in flight: its queues are
  /// idle, no DH transfer is pending and no kernel execution is referenced
  /// from a pending event or callback. Destroying the executor then cuts
  /// nothing short.
  virtual bool quiescent() const = 0;

  /// True when functional validation ran and the results were wrong.
  bool validationFailed() const { return ValidationFailed; }

  /// The job's FluidiCL runtime when it has one (cooperative executors
  /// only); the engine drains its check diagnostics into the serve report
  /// before tear-down. Null for single-device executors.
  virtual fluidicl::Runtime *fclRuntime() { return nullptr; }

protected:
  /// \p Reference is the template's host reference when the job validates
  /// its results, else null.
  JobExec(mcl::Context &Ctx, const work::Workload &W,
          HostReference *Reference)
      : Ctx(Ctx), W(W), Reference(Reference) {}

  /// Ends the job: with validation on in functional mode, checks Results
  /// against the reference (work::matchesReference), then fires OnDone
  /// exactly once.
  void finishJob();

  mcl::Context &Ctx;
  const work::Workload &W;
  HostReference *Reference;
  /// One vector per W.ResultBuffers entry (functional mode only).
  std::vector<std::vector<std::byte>> Results;
  DoneFn OnDone;
  bool ValidationFailed = false;
};

/// Cooperative CPU+GPU execution through a private FluidiCL runtime.
class CoopJobExec final : public JobExec {
public:
  CoopJobExec(mcl::Context &Ctx, const work::Workload &W,
              const fluidicl::Options &Opts, HostReference *Reference);

  void start(DoneFn OnDone) override;
  bool quiescent() const override { return RT->quiescent(); }

  /// The job's private runtime (the engine installs its chunk-yield hook
  /// here before start()).
  fluidicl::Runtime &runtime() { return *RT; }

  fluidicl::Runtime *fclRuntime() override { return RT.get(); }

private:
  void launchNext();
  void readNext();

  std::unique_ptr<fluidicl::Runtime> RT;
  std::vector<runtime::BufferId> Ids;
  size_t NextCall = 0;
  size_t NextRead = 0;
};

/// Whole job on one device through a private in-order queue.
class SingleJobExec final : public JobExec {
public:
  SingleJobExec(mcl::Context &Ctx, mcl::Device &Dev, const work::Workload &W,
                HostReference *Reference);

  void start(DoneFn OnDone) override;
  bool quiescent() const override { return Q->idle(); }

private:
  mcl::Device &Dev;
  std::unique_ptr<mcl::CommandQueue> Q;
  std::vector<std::unique_ptr<mcl::Buffer>> Bufs;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_JOBEXEC_H

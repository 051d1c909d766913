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
/// against the host reference, proving that concurrent streams do not
/// corrupt each other's data.
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

/// Base of the executor shapes (dag::DagJobExec is the third). Lifetime:
/// the engine keeps every executor alive until the whole run is torn down,
/// so trailing cooperative work (DH transfers after the client already has
/// its results) can drain on the shared clock without dangling queues.
class JobExec {
public:
  using DoneFn = std::function<void()>;

  virtual ~JobExec() = default;

  /// Starts the job; \p OnDone fires exactly once, when the client has its
  /// results (trailing cooperative drain may continue afterwards, matching
  /// how the paper measures total running time).
  virtual void start(DoneFn OnDone) = 0;

  /// True when functional validation ran and the results were wrong.
  bool validationFailed() const { return ValidationFailed; }

  /// The job's FluidiCL runtime when it has one (cooperative executors
  /// only); the engine drains its check diagnostics into the serve report
  /// before tear-down. Null for single-device executors.
  virtual fluidicl::Runtime *fclRuntime() { return nullptr; }

protected:
  JobExec(mcl::Context &Ctx, const work::Workload &W, bool Validate)
      : Ctx(Ctx), W(W), Validate(Validate) {}

  /// Ends the job: with validation on in functional mode, checks Results
  /// against the reference computed from Host (work::matchesReference),
  /// then fires OnDone exactly once.
  void finishJob();

  mcl::Context &Ctx;
  const work::Workload &W;
  bool Validate;
  /// The job's initial host data (functional mode only); validation runs
  /// the host reference over it in place.
  std::vector<std::vector<std::byte>> Host;
  /// One vector per W.ResultBuffers entry (functional mode only).
  std::vector<std::vector<std::byte>> Results;
  DoneFn OnDone;
  bool ValidationFailed = false;
};

/// Cooperative CPU+GPU execution through a private FluidiCL runtime.
class CoopJobExec final : public JobExec {
public:
  CoopJobExec(mcl::Context &Ctx, const work::Workload &W,
              const fluidicl::Options &Opts, bool Validate);

  void start(DoneFn OnDone) override;

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
                bool Validate);

  void start(DoneFn OnDone) override;

private:
  mcl::Device &Dev;
  std::unique_ptr<mcl::CommandQueue> Q;
  std::vector<std::unique_ptr<mcl::Buffer>> Bufs;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_JOBEXEC_H

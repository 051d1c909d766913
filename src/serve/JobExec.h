//===- serve/JobExec.h - Asynchronous per-job executors ---------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one admitted job (a work::Workload) to completion without ever
/// blocking the simulator: the serve engine drives many jobs concurrently
/// from inside simulator events, so every executor is a chain of host
/// steps (mcl::Context::hostThen continuations) and completion callbacks,
/// not a drain loop.
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
#include "race/Race.h"
#include "work/Workload.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace fcl {
namespace serve {

/// One job template's host data, shared by every functional job of that
/// template and built on first use: the initial buffer image
/// (work::initHostData, a pure function of the buffer specs) that jobs
/// write from, and the host reference (the buffers after the template's
/// workload ran on the host from that image) that validated jobs compare
/// with. An engine owns one per template, so no lock is needed.
class HostData {
public:
  using Buffers = std::vector<std::vector<std::byte>>;

  explicit HostData(const work::Workload &W) : W(&W) {}

  const Buffers &image();
  const Buffers &reference();

private:
  const work::Workload *W;
  std::optional<Buffers> Image;
  std::optional<Buffers> Reference;
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
  /// idle, no host step or DH transfer is pending and no kernel execution
  /// is referenced from a pending event or callback. Destroying the
  /// executor then cuts nothing short.
  virtual bool quiescent() const = 0;

  /// True when functional validation ran and the results were wrong.
  bool validationFailed() const { return ValidationFailed; }

  /// The job's FluidiCL runtime when it has one (cooperative executors
  /// only); the engine drains its check diagnostics into the serve report
  /// before tear-down. Null for single-device executors.
  virtual fluidicl::Runtime *fclRuntime() { return nullptr; }

protected:
  /// \p Host is the template's host data, required in functional mode
  /// and null otherwise; \p Validate checks the results against its
  /// reference. \p RaceSec names the fcl::race section the executor's host
  /// steps run in (the one its starter holds).
  JobExec(mcl::Context &Ctx, const work::Workload &W, HostData *Host,
          bool Validate, std::string RaceSec);

  /// The initial data to write into buffer \p I: null in timing-only
  /// mode.
  const void *initialData(size_t I) const;

  /// Ends the job: with validation on in functional mode, checks Results
  /// against the reference (work::matchesReference), then fires OnDone
  /// exactly once.
  void finishJob();

  mcl::Context &Ctx;
  const work::Workload &W;
  HostData *Host;
  bool Validate;
  /// One vector per W.ResultBuffers entry (functional mode only).
  std::vector<std::vector<std::byte>> Results;
  DoneFn OnDone;
  bool ValidationFailed = false;
  std::string RaceSec;
  /// The job's host API time, run inside RaceSec.
  mcl::HostSteps Steps{Ctx, RaceSec};
};

/// Cooperative CPU+GPU execution through a private FluidiCL runtime.
class CoopJobExec final : public JobExec {
public:
  CoopJobExec(mcl::Context &Ctx, const work::Workload &W,
              const fluidicl::Options &Opts, HostData *Host, bool Validate,
              std::string RaceSec);

  void start(DoneFn OnDone) override;
  bool quiescent() const override {
    return Steps.idle() && RT->quiescent();
  }

  /// The job's private runtime (the engine installs its chunk-yield hook
  /// here before start()).
  fluidicl::Runtime &runtime() { return *RT; }

  fluidicl::Runtime *fclRuntime() override { return RT.get(); }

private:
  // One runtime call each, in program order; each runs from the previous
  // one's continuation.
  void createNext();
  void writeNext();
  void launchNext();
  void readNext();

  std::unique_ptr<fluidicl::Runtime> RT;
  std::vector<runtime::BufferId> Ids;
  size_t NextWrite = 0;
  size_t NextCall = 0;
  size_t NextRead = 0;
};

/// Whole job on one device through a private in-order queue.
class SingleJobExec final : public JobExec {
public:
  SingleJobExec(mcl::Context &Ctx, mcl::Device &Dev, const work::Workload &W,
                HostData *Host, bool Validate, std::string RaceSec);

  void start(DoneFn OnDone) override;
  bool quiescent() const override { return Steps.idle() && Q->idle(); }

private:
  /// Issues host API call number NextCall, one host step each, in program
  /// order: create every buffer, write every one, launch every kernel,
  /// read every result; then enqueues the tail that finishes the job.
  void issueNext();

  mcl::Device &Dev;
  std::unique_ptr<mcl::CommandQueue> Q;
  std::vector<std::unique_ptr<mcl::Buffer>> Bufs;
  size_t NextCall = 0;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_JOBEXEC_H

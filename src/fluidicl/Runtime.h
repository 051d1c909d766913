//===- fluidicl/Runtime.h - The FluidiCL runtime ----------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FluidiCL runtime (the paper's contribution): takes the single-device
/// OpenCL program (the HeteroRuntime API) and executes every kernel
/// cooperatively on the CPU and the GPU.
///
/// Per paper section 4/5:
///  * createBuffer/writeBuffer fan out to both devices (section 4.1).
///  * Each kernel launch enqueues the full NDRange on the GPU (work-groups
///    ascending from 0) and a stream of CPU subkernels working down from
///    the highest flattened work-group ID (section 4.2).
///  * After each subkernel, the CPU's out/inout data and then an execution-
///    status message travel to the GPU on the in-order "hd" queue, so a
///    work-group only counts as CPU-complete when its data has arrived.
///  * GPU work-groups abort when covered by the CPU status (sections 4.2,
///    6.4, 6.5); when the GPU kernel exits, per-buffer diff/merge kernels
///    combine the CPU and GPU results on the GPU (section 4.3).
///  * A device-to-host stage returns merged out buffers to the CPU
///    asynchronously (sections 4.4, 5.6), tracked by buffer versions
///    (section 5.3) and data-location information (section 6.2).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_FLUIDICL_RUNTIME_H
#define FCL_FLUIDICL_RUNTIME_H

#include "check/Diag.h"
#include "check/ProtocolChecker.h"
#include "fluidicl/BufferPool.h"
#include "fluidicl/OnlineProfiler.h"
#include "fluidicl/Options.h"
#include "fluidicl/VersionTracker.h"
#include "mcl/CommandQueue.h"
#include "race/Race.h"
#include "runtime/HeteroRuntime.h"
#include "stats/LaunchStats.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fcl {
namespace fluidicl {

class KernelExec;

/// Summary of one cooperative kernel execution (for experiments/tests).
/// Lives in the stats subsystem now; the alias keeps the historical
/// fluidicl::KernelStats spelling working.
using KernelStats = stats::LaunchStats;

/// The FluidiCL runtime.
///
/// The blocking calls (the HeteroRuntime API) are for top-level callers:
/// each is its async form plus a run loop. Callers inside simulator events
/// (the serve layer, which drives many runtimes at once) use the async
/// forms, whose host time (API overheads, buffer creation, host copies)
/// is a continuation through mcl::Context::hostThen.
class Runtime final : public runtime::HeteroRuntime {
public:
  /// Builds a runtime. From top-level code it charges setupTime() at once;
  /// inside a simulator event it charges nothing, and the caller charges
  /// setupTime() as its first host step.
  explicit Runtime(mcl::Context &Ctx, Options Opts = Options());
  ~Runtime() override;

  /// Host time of building a runtime: creating its GPU status buffer.
  Duration setupTime() const;

  std::string name() const override { return "FluidiCL"; }
  runtime::BufferId createBuffer(uint64_t Size,
                                 std::string DebugName) override;
  void writeBuffer(runtime::BufferId Id, const void *Src,
                   uint64_t Bytes) override;
  void readBuffer(runtime::BufferId Id, void *Dst, uint64_t Bytes) override;
  void launchKernel(const std::string &KernelName, const kern::NDRange &Range,
                    const std::vector<runtime::KArg> &Args) override;
  void finish() override;

  /// Non-blocking createBuffer: one host step charges the API call and
  /// both device allocations, then \p Then gets the new buffer's id.
  void createBufferAsync(uint64_t Size, std::string DebugName,
                         std::function<void(runtime::BufferId)> Then);

  /// Non-blocking writeBuffer: \p Then runs once both device writes are
  /// enqueued (the data is captured then, as writeBuffer does).
  void writeBufferAsync(runtime::BufferId Id, const void *Src,
                        uint64_t Bytes, std::function<void()> Then);

  /// Non-blocking launch: \p OnDone fires once when the launch is
  /// application-complete.
  void launchKernelAsync(const std::string &KernelName,
                         const kern::NDRange &Range,
                         const std::vector<runtime::KArg> &Args,
                         std::function<void()> OnDone);

  /// Non-blocking read: \p OnDone fires once the data is in \p Dst. Routes
  /// exactly like readBuffer (CPU copy when current, GPU otherwise).
  void readBufferAsync(runtime::BufferId Id, void *Dst, uint64_t Bytes,
                       std::function<void()> OnDone);

  /// Hook invoked at every CPU chunk boundary instead of immediately
  /// launching the next subkernel; the hook owns the passed Resume closure
  /// and calls it (now or later) to continue this runtime's CPU side. The
  /// serve layer uses this to backfill foreign short jobs onto the CPU
  /// between subkernel chunks. Null (the default) preserves the
  /// single-application behaviour bit for bit.
  void setChunkYield(
      std::function<void(std::function<void()> Resume)> Hook) {
    ChunkYield = std::move(Hook);
  }

  const Options &options() const { return Opts; }

  /// True when every queue is idle, no DH transfer or host step is pending
  /// and no kernel execution is referenced from a pending event or
  /// callback: nothing of this runtime is left in flight, so finish()
  /// drains nothing and destroying the runtime cuts nothing short.
  bool quiescent() const;

  /// Diagnostic sink of the check subsystem (Options::Check controls
  /// whether it collects anything). The OpenCL shim's lint layer and the
  /// ProtocolChecker both report here.
  check::DiagSink &diagSink() { return Diags; }
  const check::DiagSink &diagSink() const { return Diags; }

  /// Protocol invariant checker; null when Options::Check is Off.
  check::ProtocolChecker *protocolChecker() { return Checker.get(); }

  /// Per-kernel execution summaries, in launch order. Call finish() first
  /// for final numbers.
  std::vector<KernelStats> kernelStats() const;

  /// Adds the launch records, buffer-pool / version-tracker / read-routing
  /// counters, and derived gauges on top of the base registry.
  void collectStats(stats::RunReport &Report) const override;

private:
  friend class KernelExec;

  /// One application buffer, duplicated on both devices (section 4.1).
  struct DualBuffer {
    uint64_t Size = 0;
    std::string Name;
    std::unique_ptr<mcl::Buffer> CpuBuf;
    std::unique_ptr<mcl::Buffer> GpuBuf;
    /// Last command that lands data in CpuBuf (host write or DH read);
    /// readBuffer waits on it instead of draining whole queues, so a
    /// trailing CPU subkernel never delays the application's result read.
    mcl::EventPtr CpuLanding;
  };

  DualBuffer &buf(runtime::BufferId Id);

  /// Runs \p Fn once the CPU copy of every (buffer, version) pair has
  /// received at least that version, retrying as pending device-to-host
  /// transfers land (section 5.3 gate). Versions are captured before the
  /// launching kernel bumps its out buffers, so a kernel's own writes do
  /// not gate its own CPU subkernels.
  void whenCpuVersions(std::vector<std::pair<uint32_t, uint64_t>> Needs,
                       std::function<void()> Fn);

  /// Registers an outstanding DH transfer event.
  void trackDh(mcl::EventPtr E);

  /// Reports buffer \p Id's (expected, cpu) versions to the protocol
  /// checker after any VersionTracker mutation.
  void noteVersion(uint32_t Id);

  Options Opts;
  check::DiagSink Diags;
  std::unique_ptr<check::ProtocolChecker> Checker;
  std::unique_ptr<mcl::CommandQueue> GpuAppQueue; // Kernels, merges, writes.
  std::unique_ptr<mcl::CommandQueue> CpuQueue;    // CPU subkernels, writes.
  std::unique_ptr<mcl::CommandQueue> HdQueue;     // CPU data + status to GPU.
  std::unique_ptr<mcl::CommandQueue> DhQueue;     // Merged results to host.
  std::unique_ptr<mcl::Buffer> StatusBuf;         // GPU status word.
  std::vector<std::unique_ptr<DualBuffer>> Buffers;
  VersionTracker Versions;
  BufferPool Pool;
  OnlineProfiler Profiler;
  uint64_t NextKernelId = 0;
  std::vector<mcl::EventPtr> PendingDh;
  std::vector<std::shared_ptr<KernelExec>> Execs;
  std::function<void(std::function<void()>)> ChunkYield;
  /// fcl::race critical-section name covering this runtime's host-side
  /// state (buffers, version tracker, pool, exec list). Every API entry
  /// point and async completion callback runs inside it, declaring "one
  /// lock per runtime" as the threading plan the analyzer checks against.
  std::string RaceSec;
  /// Host time of API calls and buffer creation, run inside RaceSec.
  mcl::HostSteps Steps{Ctx, RaceSec};
};

} // namespace fluidicl
} // namespace fcl

#endif // FCL_FLUIDICL_RUNTIME_H

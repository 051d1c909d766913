//===- fluidicl/KernelExec.h - One cooperative kernel execution -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event-driven orchestration of one cooperative kernel execution (paper
/// Figure 6): GPU full-range launch, CPU subkernel scheduler, hd data +
/// status stream, GPU-side diff/merge, and the asynchronous device-to-host
/// stage. The "CPU scheduler thread" and "DH thread" of the paper's
/// pthreads implementation are realized as completion-callback state
/// machines on the simulated clock.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_FLUIDICL_KERNELEXEC_H
#define FCL_FLUIDICL_KERNELEXEC_H

#include "fluidicl/ChunkController.h"
#include "fluidicl/Runtime.h"

#include <functional>
#include <memory>

namespace fcl {
namespace fluidicl {

/// State machine for one kernel launch. Created and driven by
/// Runtime::launchKernelAsync; kept alive by its own callbacks.
class KernelExec : public std::enable_shared_from_this<KernelExec> {
public:
  KernelExec(Runtime &RT, const kern::KernelInfo &Kernel,
             const kern::NDRange &Range,
             const std::vector<runtime::KArg> &Args);

  /// Starts the cooperative execution and returns; \p OnDone fires once
  /// when the kernel is application-complete: either the merge finished on
  /// the GPU, or the CPU computed the entire NDRange first.
  void start(std::function<void()> OnDone);

  const KernelStats &stats() const { return Stats; }

private:
  struct OutBinding {
    uint32_t BufId = 0;
    Runtime::DualBuffer *B = nullptr;
    mcl::Buffer *Orig = nullptr;    // Snapshot of pre-kernel GPU data.
    mcl::Buffer *CpuData = nullptr; // Landing area for CPU results.
  };

  /// Acquires scratch buffer \p K (out K / 2's snapshot when K is even,
  /// its CPU-data landing area when odd), charging a pool miss's creation
  /// as a host step, and enqueues out K / 2's snapshot copies once both of
  /// its buffers are held. After the last one, launches both sides.
  void acquireScratch(size_t K);
  void enqueueSnapshot(OutBinding &O);
  void launchBothSides();

  // --- GPU side -----------------------------------------------------------
  void launchGpuKernel();
  void gpuFinished(uint64_t ExecutedGroups);
  void enqueueMerges();
  void mergesDone();

  // --- CPU side (the "CPU scheduler thread") -------------------------------
  void launchNextSubkernel();
  void subkernelDone(uint64_t Begin, uint64_t End,
                     const kern::KernelInfo *Used, TimePoint StartedAt);
  void sendCpuDataAndStatus(uint64_t Boundary, uint64_t Begin, uint64_t End);
  void maybeContinueCpu();

  /// Bytes of \p Out touched by flat work-groups [Begin, End) when region
  /// transfers apply; fills \p Offset with the band start. Whole buffer
  /// otherwise.
  uint64_t regionBytes(const OutBinding &Out, uint64_t Begin, uint64_t End,
                       uint64_t &Offset) const;

  // --- Completion -----------------------------------------------------------
  void startDhStage();
  void releaseScratch();
  void appComplete();

  mcl::LaunchDesc buildDesc(const kern::KernelInfo &K, bool ForGpu) const;

  Runtime &RT;
  const kern::KernelInfo &Kernel;
  kern::NDRange Range;
  std::vector<runtime::KArg> Args;
  uint64_t KernelId;
  uint64_t TotalGroups;
  TimePoint StartedAt;

  std::vector<OutBinding> Outs;
  /// (buffer, version) pairs the CPU copy must hold before subkernels may
  /// start (section 5.3), captured before this kernel bumps its outs.
  std::vector<std::pair<uint32_t, uint64_t>> Gate;
  bool CooperativeAllowed = false;     // UseCpu and no atomics (section 7).
  bool UseRegionTransfers = false;     // Extension: band transfers.

  // Shared dynamic state between the two sides. The status word the GPU
  // launch watches: the lowest work-group whose CPU data has arrived.
  std::shared_ptr<mcl::StatusWord> Status;
  uint64_t CpuLow;       // Lowest flat ID assigned to the CPU so far.
  bool CpuRanAll = false;
  bool GpuDone = false;
  bool MergePhaseStarted = false;
  int MergesPending = 0;
  bool ScratchReleased = false;
  bool HdDrained = true;
  bool AppComplete = false;

  ChunkController Chunks;
  mcl::EventPtr LastHdEvent;
  /// Shared with the GPU engine via LaunchDesc::Counters; reports
  /// mid-wave aborted (wasted) work-groups.
  std::shared_ptr<mcl::LaunchCounters> GpuCounters;
  KernelStats Stats;
  std::function<void()> OnDone; // Fired once by appComplete (may be null).
};

} // namespace fluidicl
} // namespace fcl

#endif // FCL_FLUIDICL_KERNELEXEC_H

//===- fluidicl/KernelExec.cpp - One cooperative kernel execution ---------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fluidicl/KernelExec.h"

#include "kern/Registry.h"
#include "prof/Profiler.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Log.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace fcl;
using namespace fcl::fluidicl;

KernelExec::KernelExec(Runtime &RT, const kern::KernelInfo &Kernel,
                       const kern::NDRange &Range,
                       const std::vector<runtime::KArg> &Args)
    : RT(RT), Kernel(Kernel), Range(Range), Args(Args),
      KernelId(++RT.NextKernelId), TotalGroups(Range.totalGroups()),
      ItemsPerGroup(Range.itemsPerGroup()),
      GpuVisibleBoundary(std::make_shared<uint64_t>(Range.totalGroups())),
      CpuLow(Range.totalGroups()),
      Chunks(Range.totalGroups(), RT.Ctx.machine().Cpu.ComputeUnits,
             RT.Opts.InitialChunkPct, RT.Opts.StepPct) {
  Stats.KernelName = Kernel.Name;
  Stats.CpuKernelUsed = Kernel.Name;
  Stats.KernelId = KernelId;
  Stats.TotalGroups = TotalGroups;
  YieldGuardName = RT.RaceSec + ".yield#" + std::to_string(KernelId);
}

mcl::LaunchDesc KernelExec::buildDesc(const kern::KernelInfo &K,
                                      bool ForGpu) const {
  mcl::LaunchDesc Desc;
  Desc.Kernel = &K;
  Desc.Range = Range;
  for (const runtime::KArg &A : Args)
    Desc.Args.push_back(A.toLaunchArg([&](runtime::BufferId Id) {
      Runtime::DualBuffer &B = RT.buf(Id);
      return ForGpu ? B.GpuBuf.get() : B.CpuBuf.get();
    }));
  return Desc;
}

void KernelExec::run() {
  start(nullptr);
  // Block the application until the kernel is complete (paper section 7:
  // kernel execution calls are blocking).
  RT.Ctx.simulator().runWhileNot([this] { return AppComplete; });
  FCL_CHECK(AppComplete, "kernel execution stalled");
}

void KernelExec::start(std::function<void()> Done) {
  FCL_PROF_SCOPE("fcl.launch_setup");
  OnDone = std::move(Done);
  StartedAt = RT.Ctx.now();

  // Classify arguments: which buffers does this kernel write (they need
  // orig/cpu-data scratch and merging), and which must be current on the
  // CPU before subkernels may start (section 5.3). The required versions
  // are captured *before* this kernel bumps its out buffers.
  std::vector<std::pair<uint32_t, uint64_t>> Gate;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (!Args[I].IsBuffer)
      continue;
    uint32_t Id = Args[I].Buf;
    kern::ArgAccess Access = Kernel.Args[I];
    if (Access == kern::ArgAccess::In || Access == kern::ArgAccess::InOut)
      Gate.emplace_back(Id, RT.Versions.expectedVersion(Id));
    if (kern::isWrittenAccess(Access)) {
      OutBinding O;
      O.BufId = Id;
      O.B = &RT.buf(Id);
      Outs.push_back(O);
    }
  }

  for (OutBinding &O : Outs) {
    RT.Versions.noteKernelWillWrite(O.BufId, KernelId);
    RT.noteVersion(O.BufId);
  }

  // Kernels with atomic primitives cannot be split across devices (paper
  // section 7): fall back to GPU-only execution for this launch.
  CooperativeAllowed = RT.Opts.UseCpu && !Kernel.UsesAtomics;
  Stats.AtomicsFallback = RT.Opts.UseCpu && Kernel.UsesAtomics;
  if (check::ProtocolChecker *PC = RT.protocolChecker())
    PC->onLaunchStart(KernelId, Kernel.Name, TotalGroups, Outs.size(),
                      CooperativeAllowed);

  // Region-transfer extension: only when the kernel's output bands are
  // row-contiguous and every out buffer divides evenly into bands.
  UseRegionTransfers =
      RT.Opts.RegionTransfers && Kernel.RowContiguousOutput;
  if (UseRegionTransfers) {
    uint64_t RowLen = Range.dims() == 1 ? 1 : Range.numGroups().X;
    uint64_t NumRows = TotalGroups / RowLen;
    for (const OutBinding &O : Outs)
      if (NumRows == 0 || O.B->Size % NumRows != 0)
        UseRegionTransfers = false; // Fall back to whole-buffer transfers.
  }

  // Acquire the per-kernel GPU scratch (section 4.1 "additional buffers",
  // pooled per section 6.1) and snapshot the unmodified data for the merge
  // (section 4.3). The snapshot copy is ordered before the kernel on the
  // in-order application queue.
  if (CooperativeAllowed) {
    for (OutBinding &O : Outs) {
      O.Orig = RT.Pool.acquire(O.B->Size);
      O.CpuData = RT.Pool.acquire(O.B->Size);
      RT.GpuAppQueue->enqueueCopy(*O.B->GpuBuf, *O.Orig, O.B->Size);
      // With region transfers only the touched bands arrive from the CPU;
      // seed the rest of CpuData with the pre-image so the merge diff sees
      // "unchanged" everywhere else.
      if (UseRegionTransfers)
        RT.GpuAppQueue->enqueueCopy(*O.B->GpuBuf, *O.CpuData, O.B->Size);
    }
  }

  launchGpuKernel();

  if (CooperativeAllowed && TotalGroups > 0) {
    auto Self = shared_from_this();
    RT.whenCpuVersions(std::move(Gate), [Self] {
      Self->CpuActive = true;
      // Routed through maybeContinueCpu so a chunk-yield hook (the serve
      // layer's backfill gate) also governs the first chunk.
      Self->maybeContinueCpu();
    });
  }
}

// --- GPU side --------------------------------------------------------------

void KernelExec::launchGpuKernel() {
  FCL_PROF_SCOPE("fcl.gpu_launch");
  mcl::LaunchDesc Desc = buildDesc(Kernel, /*ForGpu=*/true);
  if (CooperativeAllowed) {
    Desc.Abort.Kind = RT.Opts.AbortPolicy;
    Desc.Abort.Unroll = RT.Opts.LoopUnroll;
    std::shared_ptr<uint64_t> Boundary = GpuVisibleBoundary;
    Desc.AbortBoundary = [Boundary] { return *Boundary; };
    GpuCounters = std::make_shared<mcl::LaunchCounters>();
    Desc.Counters = GpuCounters;
  }
  mcl::EventPtr Done = RT.GpuAppQueue->enqueueKernel(std::move(Desc));
  auto Self = shared_from_this();
  Done->onComplete(
      [Self, Done] { Self->gpuFinished(Done->payload()); });
}

void KernelExec::gpuFinished(uint64_t ExecutedGroups) {
  race::Section RaceS(RT.RaceSec);
  GpuDone = true;
  if (check::ProtocolChecker *PC = RT.protocolChecker())
    PC->onGpuFinished(KernelId, ExecutedGroups);
  Stats.GpuGroupsExecuted = ExecutedGroups;
  // Everything the GPU did not execute it aborted after observing CPU
  // completion (only possible in cooperative launches; 0 otherwise).
  Stats.GpuGroupsAborted = TotalGroups - ExecutedGroups;
  Stats.GpuGroupsWasted = GpuCounters ? GpuCounters->GroupsWasted : 0;
  FCL_LOG_DEBUG("fcl kernel %llu (%s): gpu executed %llu/%llu groups",
                static_cast<unsigned long long>(KernelId),
                Kernel.Name.c_str(),
                static_cast<unsigned long long>(ExecutedGroups),
                static_cast<unsigned long long>(TotalGroups));
  enqueueMerges();
}

void KernelExec::enqueueMerges() {
  FCL_PROF_SCOPE("fcl.merge");
  MergePhaseStarted = true;
  // Final-result accounting, fixed at the moment the merge set is chosen:
  // the GPU-visible boundary says which work-groups' final data the CPU
  // provided (its data has arrived). When the CPU ran the entire NDRange
  // it owns every group regardless of what the GPU managed to commit.
  if (CpuRanAll) {
    Stats.GpuGroupsCompleted = 0;
    Stats.CpuGroupsCompleted = TotalGroups;
  } else {
    uint64_t Boundary = CooperativeAllowed ? *GpuVisibleBoundary : TotalGroups;
    Stats.GpuGroupsCompleted = Boundary;
    Stats.CpuGroupsCompleted = TotalGroups - Boundary;
    // CPU work completed whose data had not reached the GPU in time:
    // executed, then thrown away.
    Stats.CpuGroupsWasted += Boundary - CpuLow;
  }
  bool AnyCpuData = *GpuVisibleBoundary < TotalGroups;
  if (check::ProtocolChecker *PC = RT.protocolChecker())
    PC->onMergeSet(KernelId,
                   CooperativeAllowed ? *GpuVisibleBoundary : TotalGroups,
                   CpuRanAll, AnyCpuData && !Outs.empty());
  if (!AnyCpuData || Outs.empty() || !CooperativeAllowed) {
    mergesDone();
    return;
  }
  FCL_LOG_DEBUG("fcl kernel %llu: merging %zu buffers (boundary %llu)",
                static_cast<unsigned long long>(KernelId), Outs.size(),
                static_cast<unsigned long long>(*GpuVisibleBoundary));
  const kern::KernelInfo &Merge =
      kern::Registry::builtin().get("md_merge_kernel");
  MergesPending = static_cast<int>(Outs.size());
  // Byte model: each merge kernel scans the whole buffer against the
  // original-data snapshot; the CPU-won share of it is what the diff
  // actually replaces with CPU data (an estimate - exact counts would need
  // functional execution).
  double CpuShare = TotalGroups ? static_cast<double>(Stats.CpuGroupsCompleted)
                                      / static_cast<double>(TotalGroups)
                                : 0.0;
  for (const OutBinding &O : Outs) {
    Stats.MergeBytesDiffed += O.B->Size;
    Stats.MergeBytesCopied +=
        static_cast<uint64_t>(CpuShare * static_cast<double>(O.B->Size));
  }
  auto Self = shared_from_this();
  for (size_t Slot = 0; Slot < Outs.size(); ++Slot) {
    OutBinding &O = Outs[Slot];
    if (check::ProtocolChecker *PC = RT.protocolChecker())
      PC->onMergeEnqueued(KernelId, Slot);
    uint64_t Items =
        (O.B->Size + kern::MergeChunkBytes - 1) / kern::MergeChunkBytes;
    uint64_t Local = 64;
    uint64_t Global = (Items + Local - 1) / Local * Local;
    mcl::LaunchDesc Desc;
    Desc.Kernel = &Merge;
    Desc.Range = kern::NDRange::of1D(Global, Local);
    Desc.Args = {
        mcl::LaunchArg::buffer(O.CpuData),
        mcl::LaunchArg::buffer(O.B->GpuBuf.get()),
        mcl::LaunchArg::buffer(O.Orig),
        mcl::LaunchArg::scalarInt(static_cast<int64_t>(O.B->Size)),
        mcl::LaunchArg::scalarInt(4), // Base-type granularity (float).
    };
    mcl::EventPtr Done = RT.GpuAppQueue->enqueueKernel(std::move(Desc));
    Done->onComplete([Self] {
      race::Section RaceS(Self->RT.RaceSec);
      if (--Self->MergesPending == 0)
        Self->mergesDone();
    });
  }
}

void KernelExec::mergesDone() {
  // The GPU now holds the merged, most recent data (or computed everything
  // itself). Bring the results back to the CPU asynchronously and finish
  // the application-visible call.
  startDhStage();
  releaseScratch();
  appComplete();
}

// --- CPU side ----------------------------------------------------------------

void KernelExec::launchNextSubkernel() {
  FCL_PROF_SCOPE("fcl.chunk_launch");
  if (GpuDone || CpuLow == 0)
    return;
  uint64_t Chunk = Chunks.nextChunk(CpuLow);
  FCL_CHECK(Chunk > 0 && Chunk <= CpuLow, "bad chunk");
  const kern::KernelInfo *Used = &Kernel;
  if (RT.Opts.OnlineProfiling) {
    Used = RT.Profiler.pickCpuKernel(Kernel);
    // Section 6.6: measure each variant on a *small* allocation first so
    // a slow variant does not tie the CPU up for a whole regular chunk.
    if (!RT.Profiler.decided(Kernel)) {
      uint64_t Probe = std::max<uint64_t>(
          static_cast<uint64_t>(RT.Ctx.machine().Cpu.ComputeUnits),
          TotalGroups / 256);
      Chunk = std::min({Chunk, Probe, CpuLow});
    }
  }
  Stats.CpuKernelUsed = Used->Name;

  uint64_t Begin = CpuLow - Chunk;
  uint64_t End = CpuLow;
  mcl::LaunchDesc Desc = buildDesc(*Used, /*ForGpu=*/false);
  Desc.FlatBegin = Begin;
  Desc.FlatEnd = End;
  Desc.SplitWorkGroups = RT.Opts.CpuWorkGroupSplit;
  // A subkernel finishing after the GPU kernel exited is moot: its results
  // are neither transferred nor merged, and the DH stage re-establishes
  // the CPU copy - suppress its writes so it cannot clobber newer data.
  auto SelfForSkip = shared_from_this();
  Desc.SkipFunctional = [SelfForSkip] {
    return SelfForSkip->GpuDone || SelfForSkip->MergePhaseStarted;
  };
  TimePoint T0 = RT.Ctx.now();
  mcl::EventPtr Done = RT.CpuQueue->enqueueKernel(std::move(Desc));
  auto Self = shared_from_this();
  Done->onComplete([Self, Begin, End, Used, T0] {
    Self->subkernelDone(Begin, End, Used, T0);
  });
}

uint64_t KernelExec::regionBytes(const OutBinding &Out, uint64_t Begin,
                                 uint64_t End, uint64_t &Offset) const {
  if (!UseRegionTransfers) {
    Offset = 0;
    return Out.B->Size;
  }
  uint64_t RowLen = Range.dims() == 1 ? 1 : Range.numGroups().X;
  uint64_t NumRows = TotalGroups / RowLen;
  uint64_t BytesPerRow = Out.B->Size / NumRows;
  uint64_t FirstRow = Begin / RowLen;
  uint64_t LastRow = (End - 1) / RowLen;
  Offset = FirstRow * BytesPerRow;
  return (LastRow - FirstRow + 1) * BytesPerRow;
}

void KernelExec::subkernelDone(uint64_t Begin, uint64_t End,
                               const kern::KernelInfo *Used,
                               TimePoint StartedAtTime) {
  race::Section RaceS(RT.RaceSec);
  Duration Took = RT.Ctx.now() - StartedAtTime;
  if (check::ProtocolChecker *PC = RT.protocolChecker())
    PC->onCpuSubkernel(KernelId, Begin, End);
  uint64_t Groups = End - Begin;
  ++Stats.CpuSubkernels;
  Stats.CpuGroupsExecuted += Groups;
  Chunks.reportSubkernel(Groups, Took);
  stats::ChunkPoint Point;
  Point.At = RT.Ctx.now();
  Point.Groups = Groups;
  Point.PctAfter = Chunks.currentPct();
  Point.Took = Took;
  Stats.ChunkTrajectory.push_back(Point);
  if (trace::Tracer *T = RT.Ctx.tracer())
    T->counter("CPU chunk work-groups", RT.Ctx.now(),
               static_cast<double>(Groups));
  if (RT.Opts.OnlineProfiling)
    RT.Profiler.reportSubkernel(Kernel, *Used, Groups, Took);
  CpuLow = Begin;

  // The CPU scheduler exits once the GPU kernel has exited (paper section
  // 4.2): the remaining and in-flight CPU results are not needed. A
  // subkernel landing after the merge set was fixed is pure waste.
  if (GpuDone || MergePhaseStarted) {
    if (MergePhaseStarted && !CpuRanAll)
      Stats.CpuGroupsWasted += Groups;
    return;
  }

  if (CpuLow == 0) {
    // The CPU computed the entire NDRange first: the final data is deemed
    // available on the CPU (section 4.2); the GPU results are ignored. The
    // data+status stream still runs so the GPU becomes current for
    // subsequent kernels via its merge.
    CpuRanAll = true;
    for (OutBinding &O : Outs) {
      RT.Versions.noteCpuReceived(O.BufId, KernelId);
      RT.noteVersion(O.BufId);
    }
  }

  // Section 5.5: copy the out buffers on the host first, so subsequent
  // subkernels may proceed while the data is in flight. With region
  // transfers only the subkernel's output bands are staged.
  uint64_t StagingBytes = 0;
  for (OutBinding &O : Outs) {
    uint64_t Offset = 0;
    StagingBytes += regionBytes(O, Begin, End, Offset);
  }
  uint64_t Boundary = CpuLow;
  auto Self = shared_from_this();
  RT.Ctx.simulator().scheduleAfter(
      RT.Ctx.machine().Host.memcpyTime(StagingBytes),
      [Self, Boundary, Begin, End] {
        Self->sendCpuDataAndStatus(Boundary, Begin, End);
      });

  if (CpuRanAll)
    appComplete();
}

void KernelExec::sendCpuDataAndStatus(uint64_t Boundary, uint64_t Begin,
                                      uint64_t End) {
  FCL_PROF_SCOPE("fcl.hd_send");
  race::Section RaceS(RT.RaceSec);
  // If the GPU finished in the meantime the scratch buffers may be on
  // their way back to the pool; sending would be pointless anyway (the
  // GPU computed those work-groups itself).
  if (MergePhaseStarted)
    return;
  HdDrained = false;
  FCL_LOG_DEBUG("fcl kernel %llu: sending cpu data, boundary %llu",
                static_cast<unsigned long long>(KernelId),
                static_cast<unsigned long long>(Boundary));
  for (size_t Slot = 0; Slot < Outs.size(); ++Slot) {
    OutBinding &O = Outs[Slot];
    // Captures the CPU buffer contents now (the staging copy), then
    // streams them to the GPU-side cpu-data buffer on the in-order hd
    // queue. Region transfers send only this subkernel's output band.
    uint64_t Offset = 0;
    uint64_t Bytes = regionBytes(O, Begin, End, Offset);
    const std::byte *Src =
        O.B->CpuBuf->backed() ? O.B->CpuBuf->data() + Offset : nullptr;
    RT.HdQueue->enqueueWrite(*O.CpuData, Src, Bytes, Offset);
    Stats.HdBytesSent += Bytes;
    if (check::ProtocolChecker *PC = RT.protocolChecker()) {
      // Whole-buffer sends cover every CPU-computed group [Boundary,
      // total); region sends cover the band rounded down to row starts.
      uint64_t CoveredFrom = Boundary;
      if (UseRegionTransfers) {
        uint64_t RowLen = Range.dims() == 1 ? 1 : Range.numGroups().X;
        CoveredFrom = Begin / RowLen * RowLen;
      }
      PC->onDataStaged(KernelId, Slot, CoveredFrom);
    }
  }
  // The status message follows the data on the same in-order queue, so the
  // GPU observes the new boundary only after the data has arrived
  // (section 4.2 - this is what folds transfer time into "complete").
  mcl::EventPtr StatusDone =
      RT.HdQueue->enqueueWrite(*RT.StatusBuf, nullptr, 8);
  Stats.StatusBytesSent += 8;
  std::shared_ptr<uint64_t> BoundaryWord = GpuVisibleBoundary;
  auto Self = shared_from_this();
  StatusDone->onComplete([Self, BoundaryWord, Boundary, StatusDone] {
    race::Section RaceS(Self->RT.RaceSec);
    if (check::ProtocolChecker *PC = Self->RT.protocolChecker())
      PC->onStatusCommit(Self->KernelId, Boundary);
    if (Boundary < *BoundaryWord)
      *BoundaryWord = Boundary;
    if (Self->LastHdEvent == StatusDone) {
      Self->HdDrained = true;
      if (Self->MergePhaseStarted)
        Self->releaseScratch();
    }
  });
  LastHdEvent = StatusDone;

  maybeContinueCpu();
}

void KernelExec::maybeContinueCpu() {
  if (GpuDone || MergePhaseStarted || CpuLow == 0)
    return;
  // Chunk boundaries are the natural yield points of the cooperative
  // protocol: between subkernels the CPU holds no partial state. A
  // registered chunk-yield hook (the serve layer's backfill gate) may
  // delay the resume to slot foreign work onto the CPU; the guard re-runs
  // at resume time because the GPU may have finished in the interim.
  if (RT.ChunkYield) {
    auto Self = shared_from_this();
    // The hook invocation is a declared non-reentrant scope: a hook that
    // pumps the simulator deep enough to reach this exec's next chunk
    // boundary would re-enter itself (unbounded recursion on OS threads).
    race::GuardScope YieldGuard(YieldGuardName);
    RT.ChunkYield([Self] {
      race::Section RaceS(Self->RT.RaceSec);
      if (!Self->GpuDone && !Self->MergePhaseStarted && Self->CpuLow > 0)
        Self->launchNextSubkernel();
    });
    return;
  }
  launchNextSubkernel();
}

// --- Completion ----------------------------------------------------------------

void KernelExec::startDhStage() {
  FCL_PROF_SCOPE("fcl.dh_read");
  if (CpuRanAll || Outs.empty()) {
    // Section 6.2/4.4: when the CPU executed everything the transfer is
    // unnecessary and skipped; location tracking already points at the CPU.
    return;
  }
  // Section 5.6: the device-to-host stage returns every out/inout buffer
  // to the CPU. The transfer lands in a staging area and is *applied
  // through the in-order CPU queue*, for two reasons: (a) stale messages
  // must be discarded by version check (section 5.3) - a host write or a
  // later CPU-completed kernel may have superseded the data in flight; and
  // (b) every mutation of the CPU copy (host-write fan-outs, subkernel
  // results, DH arrivals) must observe a single total order, which the
  // CPU queue provides.
  auto Self = shared_from_this();
  for (OutBinding &O : Outs) {
    std::shared_ptr<std::vector<std::byte>> Staging;
    if (O.B->CpuBuf->backed())
      Staging = std::make_shared<std::vector<std::byte>>(O.B->Size);
    mcl::EventPtr ReadDone = RT.DhQueue->enqueueRead(
        *O.B->GpuBuf, Staging ? Staging->data() : nullptr, O.B->Size);
    Stats.DhBytesReceived += O.B->Size;
    auto Applied = std::make_shared<mcl::Event>(RT.Ctx);
    O.B->CpuLanding = Applied;
    RT.trackDh(Applied);
    uint32_t BufId = O.BufId;
    Runtime::DualBuffer *B = O.B;
    ReadDone->onComplete([Self, BufId, B, Staging, Applied] {
      Self->RT.CpuQueue->enqueueCallback([Self, BufId, B, Staging, Applied] {
        race::Section RaceS(Self->RT.RaceSec);
        if (Self->RT.Versions.cpuVersion(BufId) >= Self->KernelId) {
          FCL_LOG_DEBUG("fcl kernel %llu: DH for buffer %u stale, discarded",
                        static_cast<unsigned long long>(Self->KernelId),
                        BufId);
        } else {
          FCL_LOG_DEBUG("fcl kernel %llu: DH applied to buffer %u",
                        static_cast<unsigned long long>(Self->KernelId),
                        BufId);
          if (Staging && B->CpuBuf->backed())
            std::memcpy(B->CpuBuf->data(), Staging->data(), B->Size);
          Self->RT.Versions.noteCpuReceived(BufId, Self->KernelId);
          Self->RT.noteVersion(BufId);
        }
        Applied->fire();
      });
    });
  }
}

void KernelExec::releaseScratch() {
  if (ScratchReleased || !HdDrained || !MergePhaseStarted)
    return;
  ScratchReleased = true;
  size_t Released = 0;
  for (OutBinding &O : Outs) {
    if (O.Orig) {
      RT.Pool.release(O.Orig);
      ++Released;
    }
    if (O.CpuData) {
      RT.Pool.release(O.CpuData);
      ++Released;
    }
    O.Orig = nullptr;
    O.CpuData = nullptr;
  }
  if (check::ProtocolChecker *PC = RT.protocolChecker())
    PC->onScratchReleased(KernelId, Released);
  RT.Pool.endKernelReclaim();
}

void KernelExec::appComplete() {
  if (AppComplete)
    return;
  AppComplete = true;
  Stats.KernelTime = RT.Ctx.now() - StartedAt;
  Stats.FinalChunkPct = Chunks.currentPct();
  Stats.ChunkGrowthSteps = Chunks.growthSteps();
  Stats.CpuRanEverything = CpuRanAll;
  if (OnDone) {
    // Move out first: the callback may re-enter the runtime and launch the
    // stream's next kernel.
    std::function<void()> Fn = std::move(OnDone);
    OnDone = nullptr;
    Fn();
  }
}

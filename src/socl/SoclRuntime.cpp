//===- socl/SoclRuntime.cpp - StarPU/SOCL-style task scheduler ------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "socl/SoclRuntime.h"

#include "kern/Registry.h"
#include "support/Error.h"
#include "support/Log.h"

#include <cstring>

using namespace fcl;
using namespace fcl::socl;

SoclRuntime::SoclRuntime(mcl::Context &Ctx, Policy P, PerfModel &Model,
                         bool Calibrating, uint64_t TaskSeed)
    : HeteroRuntime(Ctx), P(P), Model(Model), Calibrating(Calibrating),
      TaskCounter(TaskSeed),
      GpuQueue(Ctx.createQueue(Ctx.gpu(), "socl-gpu")),
      CpuQueue(Ctx.createQueue(Ctx.cpu(), "socl-cpu")) {}

SoclRuntime::~SoclRuntime() { finish(); }

std::string SoclRuntime::name() const {
  return P == Policy::Eager ? "SOCL-eager" : "SOCL-dmda";
}

runtime::ManagedBuffer &SoclRuntime::buf(runtime::BufferId Id) {
  FCL_CHECK(Id < Buffers.size(), "invalid buffer id");
  return *Buffers[Id];
}

runtime::BufferId SoclRuntime::createBuffer(uint64_t Size,
                                            std::string DebugName) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  Buffers.push_back(std::make_unique<runtime::ManagedBuffer>(
      Ctx, Size, std::move(DebugName)));
  return static_cast<runtime::BufferId>(Buffers.size() - 1);
}

void SoclRuntime::writeBuffer(runtime::BufferId Id, const void *Src,
                              uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  buf(Id).writeFromHost(Src, Bytes);
}

void SoclRuntime::readBuffer(runtime::BufferId Id, void *Dst,
                             uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  runtime::ManagedBuffer &B = buf(Id);
  FCL_CHECK(Bytes <= B.size(), "read overruns buffer");
  if (!B.hostValid()) {
    mcl::Device *Src = B.anyValidDevice(&Ctx.gpu());
    FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
    B.ensureHost(queueFor(*Src));
  }
  if (Dst && B.hostData())
    std::memcpy(Dst, B.hostData(), Bytes);
}

mcl::CommandQueue &SoclRuntime::queueFor(mcl::Device &Dev) {
  return Dev.kind() == mcl::DeviceKind::Gpu ? *GpuQueue : *CpuQueue;
}

Duration
SoclRuntime::pendingTransferCost(mcl::Device &Dev,
                                 const std::vector<runtime::KArg> &Args) {
  // dmda's data-aware part: bytes that would have to move to run on Dev.
  uint64_t Bytes = 0;
  for (const runtime::KArg &A : Args) {
    if (!A.IsBuffer)
      continue;
    runtime::ManagedBuffer &B = buf(A.Buf);
    if (!B.validOn(Dev))
      Bytes += B.size();
  }
  if (Bytes == 0)
    return Duration::zero();
  if (Dev.kind() == mcl::DeviceKind::Gpu)
    return Ctx.machine().Pcie.transferTime(Bytes);
  return Ctx.machine().Host.memcpyTime(Bytes);
}

mcl::Device &SoclRuntime::chooseDevice(const std::string &KernelName,
                                       const kern::NDRange &Range,
                                       const std::vector<runtime::KArg> &Args) {
  if (P == Policy::Eager || Calibrating || !Model.calibrated(KernelName)) {
    // Eager: idle workers drain a shared queue; with one ready task at a
    // time this is effectively alternation between the workers, blind to
    // speed and locality (GPU workers poll fastest, so they grab first).
    // Calibration runs use the same alternation so both devices
    // accumulate history.
    return (TaskCounter % 2 == 0) ? Ctx.gpu() : Ctx.cpu();
  }
  // dmda: minimize estimated transfer + execution time.
  uint64_t Items = Range.totalItems();
  Duration CpuCost =
      pendingTransferCost(Ctx.cpu(), Args) +
      Model.estimate(KernelName, Items, mcl::DeviceKind::Cpu).value();
  Duration GpuCost =
      pendingTransferCost(Ctx.gpu(), Args) +
      Model.estimate(KernelName, Items, mcl::DeviceKind::Gpu).value();
  return CpuCost < GpuCost ? Ctx.cpu() : Ctx.gpu();
}

void SoclRuntime::launchKernel(const std::string &KernelName,
                               const kern::NDRange &Range,
                               const std::vector<runtime::KArg> &Args) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");

  mcl::Device &Dev = chooseDevice(KernelName, Range, Args);
  ++TaskCounter;
  Placements.push_back(Dev.kind());
  bool OnGpu = Dev.kind() == mcl::DeviceKind::Gpu;
  Stats.add("kernel_launches");
  Stats.add("workgroups_total", Range.totalGroups());
  Stats.add(OnGpu ? "tasks_gpu" : "tasks_cpu");
  Stats.add(OnGpu ? "gpu_workgroups_completed" : "cpu_workgroups_completed",
            Range.totalGroups());
  mcl::CommandQueue &Queue = queueFor(Dev);

  // Automatic data management: fetch stale inputs to the chosen device.
  for (const runtime::KArg &A : Args) {
    if (!A.IsBuffer)
      continue;
    runtime::ManagedBuffer &B = buf(A.Buf);
    if (B.validOn(Dev))
      continue;
    if (!B.hostValid()) {
      mcl::Device *Src = B.anyValidDevice();
      FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
      B.ensureHost(queueFor(*Src));
    }
    B.ensureOn(Dev, Queue);
  }

  mcl::LaunchDesc Desc;
  Desc.Kernel = &Kernel;
  Desc.Range = Range;
  for (const runtime::KArg &A : Args)
    Desc.Args.push_back(A.toLaunchArg(
        [&](runtime::BufferId Id) { return &buf(Id).on(Dev); }));

  // Measure the kernel alone (transfers excluded) for the history model,
  // bracketing it with an in-order queue callback.
  auto KernelStart = std::make_shared<TimePoint>();
  Queue.enqueueCallback([this, KernelStart] { *KernelStart = Ctx.now(); });
  mcl::EventPtr Done = Queue.enqueueKernel(std::move(Desc));
  Done->wait();
  Model.record(KernelName, Range.totalItems(), Dev.kind(),
               Done->completeTime() - *KernelStart);

  for (size_t I = 0; I < Args.size(); ++I)
    if (Args[I].IsBuffer && kern::isWrittenAccess(Kernel.Args[I]))
      buf(Args[I].Buf).markDeviceExclusive(Dev);
}

void SoclRuntime::finish() {
  GpuQueue->finish();
  CpuQueue->finish();
}

//===- runtime/StaticPartition.cpp - Manual x% GPU split baseline ---------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/StaticPartition.h"

#include "kern/Registry.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cmath>
#include <cstring>

using namespace fcl;
using namespace fcl::runtime;

StaticPartitionRuntime::StaticPartitionRuntime(mcl::Context &Ctx,
                                               double GpuFraction)
    : HeteroRuntime(Ctx), GpuFraction(GpuFraction),
      GpuQueue(Ctx.createQueue(Ctx.gpu(), "sp-gpu")),
      CpuQueue(Ctx.createQueue(Ctx.cpu(), "sp-cpu")) {
  FCL_CHECK(GpuFraction >= 0.0 && GpuFraction <= 1.0,
            "GPU fraction out of [0,1]");
}

StaticPartitionRuntime::~StaticPartitionRuntime() {
  GpuQueue->finish();
  CpuQueue->finish();
}

void StaticPartitionRuntime::setGpuFraction(double Fraction) {
  FCL_CHECK(Fraction >= 0.0 && Fraction <= 1.0, "GPU fraction out of [0,1]");
  GpuFraction = Fraction;
}

std::string StaticPartitionRuntime::name() const {
  return formatString("Static%2.0f", GpuFraction * 100.0);
}

ManagedBuffer &StaticPartitionRuntime::buf(BufferId Id) {
  FCL_CHECK(Id < Buffers.size(), "invalid buffer id");
  return *Buffers[Id];
}

BufferId StaticPartitionRuntime::createBuffer(uint64_t Size,
                                              std::string DebugName) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  Buffers.push_back(
      std::make_unique<ManagedBuffer>(Ctx, Size, std::move(DebugName)));
  return static_cast<BufferId>(Buffers.size() - 1);
}

void StaticPartitionRuntime::writeBuffer(BufferId Id, const void *Src,
                                         uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  buf(Id).writeFromHost(Src, Bytes);
}

void StaticPartitionRuntime::readBuffer(BufferId Id, void *Dst,
                                        uint64_t Bytes) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  ManagedBuffer &B = buf(Id);
  FCL_CHECK(Bytes <= B.size(), "read overruns buffer");
  if (!B.hostValid()) {
    mcl::Device *Src = B.anyValidDevice(&Ctx.gpu());
    FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
    B.ensureHost(Src->kind() == mcl::DeviceKind::Gpu ? *GpuQueue : *CpuQueue);
  }
  if (Dst && B.hostData())
    std::memcpy(Dst, B.hostData(), Bytes);
}

void StaticPartitionRuntime::launchOn(mcl::Device &Dev,
                                      mcl::CommandQueue &Queue,
                                      const kern::KernelInfo &Kernel,
                                      const kern::NDRange &Range,
                                      const std::vector<KArg> &Args,
                                      uint64_t FlatBegin, uint64_t FlatEnd,
                                      mcl::EventPtr &Done) {
  mcl::LaunchDesc Desc;
  Desc.Kernel = &Kernel;
  Desc.Range = Range;
  Desc.FlatBegin = FlatBegin;
  Desc.FlatEnd = FlatEnd;
  for (const KArg &A : Args)
    Desc.Args.push_back(
        A.toLaunchArg([&](BufferId Id) { return &buf(Id).on(Dev); }));
  Done = Queue.enqueueKernel(std::move(Desc));
}

void StaticPartitionRuntime::launchKernel(const std::string &KernelName,
                                          const kern::NDRange &Range,
                                          const std::vector<KArg> &Args) {
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");

  uint64_t Total = Range.totalGroups();
  uint64_t GpuGroups = static_cast<uint64_t>(
      std::llround(GpuFraction * static_cast<double>(Total)));
  if (GpuGroups > Total)
    GpuGroups = Total;
  bool UsesGpu = GpuGroups > 0;
  bool UsesCpu = GpuGroups < Total;

  Stats.add("kernel_launches");
  Stats.add("workgroups_total", Total);
  Stats.add("gpu_workgroups_completed", GpuGroups);
  Stats.add("cpu_workgroups_completed", Total - GpuGroups);

  // Manual data management: the programmer makes the host copy current,
  // snapshots the pre-image of written buffers, and uploads inputs to the
  // devices that participate.
  std::vector<size_t> WrittenArgIdx;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (!Args[I].IsBuffer)
      continue;
    ManagedBuffer &B = buf(Args[I].Buf);
    if (!B.hostValid()) {
      mcl::Device *Src = B.anyValidDevice(&Ctx.gpu());
      FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
      B.ensureHost(Src->kind() == mcl::DeviceKind::Gpu ? *GpuQueue
                                                       : *CpuQueue);
    }
    if (UsesGpu)
      B.ensureOn(Ctx.gpu(), *GpuQueue);
    if (UsesCpu)
      B.ensureOn(Ctx.cpu(), *CpuQueue);
    if (kern::isWrittenAccess(Kernel.Args[I]))
      WrittenArgIdx.push_back(I);
  }

  // Pre-images for the host-side merge.
  std::vector<std::vector<std::byte>> PreImages;
  bool BothDevices = UsesGpu && UsesCpu;
  if (BothDevices && Ctx.functional()) {
    for (size_t I : WrittenArgIdx) {
      ManagedBuffer &B = buf(Args[I].Buf);
      PreImages.emplace_back(B.hostData(), B.hostData() + B.size());
    }
  }

  mcl::EventPtr GpuDone, CpuDone;
  if (UsesGpu)
    launchOn(Ctx.gpu(), *GpuQueue, Kernel, Range, Args, 0, GpuGroups,
             GpuDone);
  if (UsesCpu)
    launchOn(Ctx.cpu(), *CpuQueue, Kernel, Range, Args, GpuGroups, Total,
             CpuDone);
  if (GpuDone)
    GpuDone->wait();
  if (CpuDone)
    CpuDone->wait();

  if (!BothDevices) {
    mcl::Device &Only = UsesGpu ? Ctx.gpu() : Ctx.cpu();
    for (size_t I : WrittenArgIdx)
      buf(Args[I].Buf).markDeviceExclusive(Only);
    return;
  }

  // Read both halves back in full and merge on the host against the
  // pre-image (the generic manual scheme; per-row sub-buffer transfers are
  // an app-specific optimization FluidiCL does not get either).
  for (size_t W = 0; W < WrittenArgIdx.size(); ++W) {
    size_t I = WrittenArgIdx[W];
    ManagedBuffer &B = buf(Args[I].Buf);
    std::vector<std::byte> GpuCopy, CpuCopy;
    if (Ctx.functional()) {
      GpuCopy.resize(B.size());
      CpuCopy.resize(B.size());
    }
    mcl::EventPtr RG = GpuQueue->enqueueRead(
        B.on(Ctx.gpu()), GpuCopy.empty() ? nullptr : GpuCopy.data(),
        B.size());
    mcl::EventPtr RC = CpuQueue->enqueueRead(
        B.on(Ctx.cpu()), CpuCopy.empty() ? nullptr : CpuCopy.data(),
        B.size());
    RG->wait();
    RC->wait();
    if (Ctx.functional()) {
      const std::vector<std::byte> &Pre = PreImages[W];
      std::byte *Out = B.hostData();
      for (uint64_t Byte = 0; Byte < B.size(); ++Byte) {
        if (GpuCopy[Byte] != Pre[Byte])
          Out[Byte] = GpuCopy[Byte];
        else if (CpuCopy[Byte] != Pre[Byte])
          Out[Byte] = CpuCopy[Byte];
      }
    }
    // Charge the host merge pass (two reads + one write over the buffer).
    Stats.add("host_merge_bytes", B.size());
    Ctx.hostAdvance(Ctx.machine().Host.memcpyTime(3 * B.size()));
    B.markHostCurrent();
    B.invalidateDevices();
  }
}

void StaticPartitionRuntime::finish() {
  GpuQueue->finish();
  CpuQueue->finish();
}

//===- runtime/SingleDevice.cpp - CPU-only / GPU-only baselines -----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/SingleDevice.h"

#include "kern/Registry.h"
#include "mcl/CpuEngine.h"
#include "mcl/GpuEngine.h"
#include "support/Error.h"

using namespace fcl;
using namespace fcl::runtime;

SingleDeviceRuntime::SingleDeviceRuntime(mcl::Context &Ctx,
                                         mcl::DeviceKind Kind)
    : ManagedRuntime(Ctx),
      Dev(Kind == mcl::DeviceKind::Cpu ? Ctx.cpu() : Ctx.gpu()),
      Queue(Ctx.createQueue(Dev, "app")) {}

SingleDeviceRuntime::~SingleDeviceRuntime() { Queue->finish(); }

std::string SingleDeviceRuntime::name() const {
  return Dev.kind() == mcl::DeviceKind::Cpu ? "CPU" : "GPU";
}

void SingleDeviceRuntime::writeBuffer(BufferId Id, const void *Src,
                                      uint64_t Bytes) {
  ManagedRuntime::writeBuffer(Id, Src, Bytes);
  Stats.add("app_bytes_written", Bytes);
  buf(Id).ensureOn(Dev, *Queue);
}

void SingleDeviceRuntime::readBuffer(BufferId Id, void *Dst, uint64_t Bytes) {
  ManagedRuntime::readBuffer(Id, Dst, Bytes);
  Stats.add("app_bytes_read", Bytes);
}

mcl::LaunchDesc
SingleDeviceRuntime::buildLaunch(const std::string &KernelName,
                                 const kern::NDRange &Range,
                                 const std::vector<KArg> &Args) {
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");
  mcl::LaunchDesc Desc;
  Desc.Kernel = &Kernel;
  Desc.Range = Range;
  for (const KArg &A : Args)
    Desc.Args.push_back(
        A.toLaunchArg([&](BufferId Id) { return &buf(Id).on(Dev); }));
  return Desc;
}

void SingleDeviceRuntime::launchKernel(const std::string &KernelName,
                                       const kern::NDRange &Range,
                                       const std::vector<KArg> &Args) {
  Ctx.hostThen(Ctx.machine().Host.ApiCallOverhead, [] {});
  Stats.add("kernel_launches");
  Stats.add("workgroups_total", Range.totalGroups());
  Stats.add(Dev.kind() == mcl::DeviceKind::Cpu ? "cpu_workgroups_completed"
                                               : "gpu_workgroups_completed",
            Range.totalGroups());
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  // Uploads for stale inputs, as a straightforward host program would issue.
  for (size_t I = 0; I < Args.size(); ++I)
    if (Args[I].IsBuffer)
      buf(Args[I].Buf).ensureOn(Dev, *Queue);
  mcl::LaunchDesc Desc = buildLaunch(KernelName, Range, Args);
  mcl::EventPtr Done = Queue->enqueueKernel(std::move(Desc));
  Done->wait(); // Kernel calls are blocking (paper section 7).
  for (size_t I = 0; I < Args.size(); ++I)
    if (Args[I].IsBuffer && kern::isWrittenAccess(Kernel.Args[I]))
      buf(Args[I].Buf).markDeviceExclusive(Dev);
}

void SingleDeviceRuntime::finish() { Queue->finish(); }

Duration
SingleDeviceRuntime::kernelOnlyDuration(const std::string &KernelName,
                                        const kern::NDRange &Range,
                                        const std::vector<KArg> &Args) {
  mcl::LaunchDesc Desc = buildLaunch(KernelName, Range, Args);
  if (Dev.kind() == mcl::DeviceKind::Gpu)
    return static_cast<mcl::GpuEngine &>(Dev).launchDuration(Desc);
  return static_cast<mcl::CpuEngine &>(Dev).launchDuration(Desc);
}

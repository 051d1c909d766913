//===- mcl/CpuEngine.cpp - Simulated CPU OpenCL device ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/CpuEngine.h"

#include "hw/CostModel.h"
#include "mcl/Context.h"
#include "support/Error.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::mcl;

CpuEngine::CpuEngine(Context &Ctx) : Device(Ctx, DeviceKind::Cpu, "SimCPU") {}

int CpuEngine::computeUnits() const {
  return Ctx.machine().Cpu.ComputeUnits;
}

TimePoint CpuEngine::scheduleTransfer(TransferDir Dir, uint64_t Bytes) {
  // The host-CPU device shares physical memory with the host (the OpenCL
  // runtime still copies, at memcpy speed); a Xeon-Phi-class coprocessor
  // configured as the second device sits behind its own PCIe link
  // instead. Directions contend like two streams either way.
  int Idx = Dir == TransferDir::HostToDevice ? 0 : 1;
  TimePoint Start = std::max(ChannelFree[Idx], Ctx.now());
  Duration Cost = Ctx.machine().Cpu.BehindPcie
                      ? Ctx.machine().Pcie.transferTime(Bytes)
                      : Ctx.machine().Host.memcpyTime(Bytes);
  TimePoint End = Start + Cost;
  ChannelFree[Idx] = End;
  return End;
}

Duration CpuEngine::copyDuration(uint64_t Bytes) const {
  return Ctx.machine().Host.memcpyTime(Bytes);
}

Duration CpuEngine::launchDuration(const LaunchDesc &Desc) const {
  const hw::Machine &M = Ctx.machine();
  uint64_t Begin = Desc.clampedBegin();
  uint64_t End = Desc.clampedEnd();
  FCL_CHECK(Begin <= End, "inverted launch range");
  uint64_t Groups = End - Begin;
  if (Groups == 0)
    return M.Cpu.KernelLaunchOverhead;

  kern::CostQuery Query;
  Query.Range = Desc.Range;
  for (const LaunchArg &A : Desc.Args) {
    kern::ArgValue V;
    V.IntValue = A.IntValue;
    V.FpValue = A.FpValue;
    Query.Scalars.push_back(V);
  }
  hw::WorkItemCost Cost = Desc.Kernel->Cost(Query);
  uint64_t Items = Desc.Range.itemsPerGroup();
  int Units = M.Cpu.ComputeUnits;

  if (Desc.SplitWorkGroups && Groups < static_cast<uint64_t>(Units)) {
    // Section 6.3: each work-group is split into Units pieces executed in
    // parallel; barriers become joins (the slowest slice gates the group).
    uint64_t SliceItems = (Items + Units - 1) / Units;
    Duration SliceTime = hw::cpuWorkGroupTime(M, Cost, SliceItems);
    Duration GroupTime = SliceTime + M.Cpu.WgDispatchOverhead;
    return M.Cpu.KernelLaunchOverhead + GroupTime * static_cast<int64_t>(Groups);
  }

  // One work-group per compute unit, executed in rounds.
  Duration WgTime =
      hw::cpuWorkGroupTime(M, Cost, Items) + M.Cpu.WgDispatchOverhead;
  uint64_t Rounds = (Groups + Units - 1) / Units;
  return M.Cpu.KernelLaunchOverhead + WgTime * static_cast<int64_t>(Rounds);
}

void CpuEngine::executeLaunch(const LaunchDesc &Desc,
                              std::function<void(uint64_t)> Complete) {
  Duration D = launchDuration(Desc);
  uint64_t Begin = Desc.clampedBegin();
  uint64_t End = Desc.clampedEnd();
  uint64_t Groups = End > Begin ? End - Begin : 0;

  // Capture what functional execution needs by value; buffers outlive the
  // launch by API contract.
  LaunchDesc DescCopy = Desc;
  Ctx.simulator().scheduleAfter(D, [this, DescCopy = std::move(DescCopy),
                                    Complete = std::move(Complete), Begin,
                                    End, Groups] {
    bool Skip = DescCopy.SkipFunctional && DescCopy.SkipFunctional();
    if (Ctx.functional() && Groups > 0 && !Skip)
      kern::executeGroups(*DescCopy.Kernel, DescCopy.Range,
                          resolveArgs(*this, DescCopy), Begin, End);
    Complete(Groups);
  });
}

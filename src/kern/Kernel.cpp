//===- kern/Kernel.cpp - Kernel execution helpers --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "kern/Kernel.h"

#include "prof/Profiler.h"

#include <algorithm>
#include <vector>

using namespace fcl;
using namespace fcl::kern;

namespace fcl {
namespace kern {

/// Functionally executes every work-item of the work-group \p GroupId of
/// \p Kernel through its per-item body, all barrier phases in order. CPU
/// work-group splitting (paper section 6.3) is timing-only
/// (CpuEngine::launchDuration), so a group always runs whole.
void executeWorkGroup(const KernelInfo &Kernel, const NDRange &Range,
                      const Dim3 &GroupId, const ArgsView &Args,
                      std::byte *LocalScratch) {
  Dim3 Local = Range.localSize();
  Dim3 Groups = Range.numGroups();
  ItemCtx Ctx;
  Ctx.GroupId = GroupId;
  Ctx.LocalSize = Local;
  Ctx.NumGroups = Groups;
  Ctx.Local = LocalScratch;
  for (int Phase = 0; Phase < Kernel.NumPhases; ++Phase) {
    Ctx.Phase = Phase;
    for (uint64_t Flat = 0, Items = Local.product(); Flat < Items; ++Flat) {
      Ctx.LocalId.X = Flat % Local.X;
      uint64_t Rest = Flat / Local.X;
      Ctx.LocalId.Y = Rest % Local.Y;
      Ctx.LocalId.Z = Rest / Local.Y;
      Ctx.GlobalId.X = GroupId.X * Local.X + Ctx.LocalId.X;
      Ctx.GlobalId.Y = GroupId.Y * Local.Y + Ctx.LocalId.Y;
      Ctx.GlobalId.Z = GroupId.Z * Local.Z + Ctx.LocalId.Z;
      Kernel.Fn(Ctx, Args);
    }
  }
}

void executeGroups(const KernelInfo &Kernel, const NDRange &Range,
                   const ArgsView &Args, uint64_t Begin, uint64_t End) {
  FCL_PROF_SCOPE("kern.execute");
  Dim3 Groups = Range.numGroups();
  if (Kernel.GroupFn) {
    for (uint64_t Flat = Begin; Flat < End; ++Flat)
      Kernel.GroupFn(unflattenGroupId(Flat, Groups), Range.localSize(), Args);
    return;
  }
  std::vector<std::byte> Scratch(Kernel.LocalBytes);
  for (uint64_t Flat = Begin; Flat < End; ++Flat) {
    if (!Scratch.empty())
      std::fill(Scratch.begin(), Scratch.end(), std::byte{0});
    executeWorkGroup(Kernel, Range, unflattenGroupId(Flat, Groups), Args,
                     Scratch.empty() ? nullptr : Scratch.data());
  }
}

} // namespace kern
} // namespace fcl

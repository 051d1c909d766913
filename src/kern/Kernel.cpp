//===- kern/Kernel.cpp - Kernel execution helpers --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "kern/Kernel.h"

#include <algorithm>
#include <vector>

using namespace fcl;
using namespace fcl::kern;

namespace fcl {
namespace kern {

/// Functionally executes every work-item of the work-group \p GroupId of
/// \p Kernel (all barrier phases in order), restricted to local items
/// [LocalBegin, LocalEnd) of the flattened local index space. The
/// restriction implements CPU work-group splitting (paper section 6.3);
/// pass 0 and itemsPerGroup() for a whole work-group.
void executeWorkGroup(const KernelInfo &Kernel, const NDRange &Range,
                      const Dim3 &GroupId, const ArgsView &Args,
                      uint64_t LocalBegin, uint64_t LocalEnd,
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
    for (uint64_t Flat = LocalBegin; Flat < LocalEnd; ++Flat) {
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
  std::vector<std::byte> Scratch(Kernel.LocalBytes);
  Dim3 Groups = Range.numGroups();
  uint64_t Items = Range.itemsPerGroup();
  for (uint64_t Flat = Begin; Flat < End; ++Flat) {
    if (!Scratch.empty())
      std::fill(Scratch.begin(), Scratch.end(), std::byte{0});
    executeWorkGroup(Kernel, Range, unflattenGroupId(Flat, Groups), Args, 0,
                     Items, Scratch.empty() ? nullptr : Scratch.data());
  }
}

} // namespace kern
} // namespace fcl

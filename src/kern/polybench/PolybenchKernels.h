//===- kern/polybench/PolybenchKernels.h - Shared kernel helpers -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the Polybench kernel implementations. Each kernel is
/// the straightforward data-parallel form of the Polybench/GPU OpenCL code
/// (one work-item per output element, row-major float matrices), with a
/// cost descriptor calibrated to reproduce the CPU/GPU affinity the paper
/// reports for the corresponding benchmark:
///
///  * Row-walking dot products (ATAX k1, BICG k1, GESUMMV) are cache
///    friendly on the CPU but poorly coalesced on the GPU.
///  * Column-walking dot products (ATAX k2, BICG k2, CORR mean/std) are
///    perfectly coalesced on the GPU but cache hostile on the CPU.
///  * O(N) register-blocked dots over cached rows (SYRK, SYR2K, CORR corr)
///    are compute bound on both devices; the naive GPU kernel loses cache
///    efficiency as rows outgrow the L2, which moves the optimal CPU/GPU
///    split with input size (paper Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_KERN_POLYBENCHKERNELS_H
#define FCL_KERN_POLYBENCHKERNELS_H

#include "kern/Kernel.h"
#include "kern/Registry.h"

#include <algorithm>

namespace fcl {
namespace kern {
namespace poly {

/// Work-group sizes used by all Polybench launches in this reproduction.
inline constexpr uint64_t WgSize1D = 32;
inline constexpr uint64_t WgSizeX2D = 32;
inline constexpr uint64_t WgSizeY2D = 8;

/// The work-items of one work-group of a 2-D range that fall inside a
/// problem \p Width items wide (X) and \p Height high (Y): columns
/// [X0, X1) and rows [Y0, Y1), empty where the group lies outside. Group
/// bodies use it for the guards their per-item bodies apply.
struct GroupBox {
  int64_t X0, X1, Y0, Y1;
};
inline GroupBox groupBox(const Dim3 &G, const Dim3 &Local, int64_t Width,
                         int64_t Height) {
  auto Lo = [](uint64_t Gi, uint64_t Li) {
    return static_cast<int64_t>(Gi * Li);
  };
  return {Lo(G.X, Local.X), std::min(Lo(G.X + 1, Local.X), Width),
          Lo(G.Y, Local.Y), std::min(Lo(G.Y + 1, Local.Y), Height)};
}

/// Builds a cost descriptor for a dot-product kernel whose work-item loops
/// \p Trip times reading \p BytesPerItem of effective off-chip traffic.
hw::WorkItemCost dotCost(double Trip, double BytesPerItem, double GpuCoal,
                         double GpuEff, double CpuFlopEff, double CpuMemEff);

} // namespace poly
} // namespace kern
} // namespace fcl

#endif // FCL_KERN_POLYBENCHKERNELS_H

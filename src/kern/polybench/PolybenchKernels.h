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

namespace fcl {
namespace kern {
namespace poly {

/// Work-group sizes used by all Polybench launches in this reproduction.
inline constexpr uint64_t WgSize1D = 32;
inline constexpr uint64_t WgSizeX2D = 32;
inline constexpr uint64_t WgSizeY2D = 8;

/// Builds a cost descriptor for a dot-product kernel whose work-item loops
/// \p Trip times reading \p BytesPerItem of effective off-chip traffic.
hw::WorkItemCost dotCost(double Trip, double BytesPerItem, double GpuCoal,
                         double GpuEff, double CpuFlopEff, double CpuMemEff);

} // namespace poly
} // namespace kern
} // namespace fcl

#endif // FCL_KERN_POLYBENCHKERNELS_H

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

/// Four floats on which + and * act lane by lane (a GCC vector extension).
/// Each lane rounds as the scalar operation would, so a sum kept in one
/// lane, fed the same operands in the same order, ends with the same bytes
/// as the scalar sum.
using Float4 = float __attribute__((vector_size(16)));

/// Items along a row of C whose sums one transposed tile advances together
/// (SYRK, SYR2K): the lanes of four Float4s.
inline constexpr int TileItems = 16;
/// Rows of C whose sums share one tile.
inline constexpr int TileRows = 8;
/// Columns of the rows (the L loop) one tile holds at a time.
inline constexpr int64_t TileL = 128;

/// Rows [J0, J0 + TileItems) of a matrix, columns [L0, L0 + TileL),
/// transposed: lane K of Tile[L] is element L0 + L of row J0 + K. A body
/// may leave its tile uninitialized: transposeRows writes every column the
/// body then reads.
using Tile = Float4[TileL][TileItems / 4];
/// One tile's sums: lane K of Sums[R] is item (I0 + R, J0 + K)'s.
using TileSums = Float4[TileRows][TileItems / 4];

/// Fills the first \p Len columns of \p T from rows [J0, J1) of the
/// row-major \p Src (\p M floats a row), starting at column \p L0. Lanes of
/// rows at or past \p J1 are zero; nothing outside [J0, J1) is read.
inline void transposeRows(Tile &T, const float *Src, int64_t M, int64_t J0,
                          int64_t J1, int64_t L0, int64_t Len) {
  static constexpr float Zero[TileL] = {};
  for (int Q = 0; Q < TileItems / 4; ++Q) {
    const float *Row[4];
    for (int K = 0; K < 4; ++K) {
      int64_t J = J0 + 4 * Q + K;
      Row[K] = J < J1 ? Src + J * M + L0 : Zero;
    }
    for (int64_t L = 0; L < Len; ++L)
      T[L][Q] = Float4{Row[0][L], Row[1][L], Row[2][L], Row[3][L]};
  }
}

/// C[I][J] = Beta * C[I][J] + Alpha * Sum for the items (I, J), I in
/// [I0, I1) and J in [J0, J1), of one tile's \p Sums (C is \p N wide).
inline void storeTileSums(float *C, int64_t N, float Alpha, float Beta,
                          const TileSums &Sums, int64_t I0, int64_t I1,
                          int64_t J0, int64_t J1) {
  for (int64_t I = I0; I < I1; ++I)
    for (int64_t J = J0; J < J1; ++J) {
      float &Out = C[I * N + J];
      Out = Beta * Out + Alpha * Sums[I - I0][(J - J0) / 4][(J - J0) % 4];
    }
}

/// Builds a cost descriptor for a dot-product kernel whose work-item loops
/// \p Trip times reading \p BytesPerItem of effective off-chip traffic.
hw::WorkItemCost dotCost(double Trip, double BytesPerItem, double GpuCoal,
                         double GpuEff, double CpuFlopEff, double CpuMemEff);

} // namespace poly
} // namespace kern
} // namespace fcl

#endif // FCL_KERN_POLYBENCHKERNELS_H

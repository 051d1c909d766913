//===- kern/polybench/Syrk.cpp - SYRK (C = a A A^T + b C) ----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SYRK from Polybench: one compute-bound rank-k update kernel with one
/// work-item per C element. This is the paper's showcase of synergistic
/// execution: CPU and GPU speeds are comparable, so FluidiCL's fine-grained
/// split beats either device by ~1.4x, and the best static split shifts
/// with the input size (paper Figure 3) because the naive GPU kernel loses
/// cache efficiency as rows outgrow on-chip storage.
///
//===----------------------------------------------------------------------===//

#include "kern/polybench/PolybenchKernels.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::kern;
using namespace fcl::kern::poly;

namespace {

/// GPU ALU efficiency of the naive SYRK-style kernel: degrades once row
/// working sets exceed the (C2070-sized) L2; this is what moves the optimal
/// CPU/GPU split from ~60/40 at N=1024 to ~40/60 at N=2048 (Figure 3).
double syrkGpuEfficiency(double N) {
  return 0.035 * std::min(1.0, 1024.0 / N);
}

/// Runs items (I, J), I in [I0, I1) and J in [J0, J1), at most TileRows by
/// TileItems. Each L block of the items' rows of A is transposed into a
/// tile, and each row I's sums advance over it in four vectors, one lane
/// per item. The sums carry from block to block, so each item adds its
/// products A[I][L] * A[J][L] in L order, as the per-item body does.
void syrkTile(const float *A, float *C, float Alpha, float Beta, int64_t N,
              int64_t M, int64_t I0, int64_t I1, int64_t J0, int64_t J1) {
  Tile T;
  TileSums Sums = {};
  for (int64_t L0 = 0; L0 < M; L0 += TileL) {
    int64_t Len = std::min(TileL, M - L0);
    transposeRows(T, A, M, J0, J1, L0, Len);
    for (int64_t I = I0; I < I1; ++I) {
      const float *AI = A + I * M + L0;
      Float4 *S = Sums[I - I0];
      Float4 S0 = S[0], S1 = S[1], S2 = S[2], S3 = S[3];
      for (int64_t L = 0; L < Len; ++L) {
        S0 += AI[L] * T[L][0];
        S1 += AI[L] * T[L][1];
        S2 += AI[L] * T[L][2];
        S3 += AI[L] * T[L][3];
      }
      S[0] = S0;
      S[1] = S1;
      S[2] = S2;
      S[3] = S3;
    }
  }
  storeTileSums(C, N, Alpha, Beta, Sums, I0, I1, J0, J1);
}

} // namespace

void fcl::kern::registerSyrkKernels(Registry &R) {
  // C[i][j] = beta*C[i][j] + alpha * sum_k A[i][k]*A[j][k].
  // Args: 0=A(In) 1=C(InOut) 2=alpha 3=beta 4=N 5=M.
  KernelInfo K;
  K.Name = "syrk_kernel";
  K.RowContiguousOutput = true;
  K.Args = {ArgAccess::In,     ArgAccess::InOut,  ArgAccess::Scalar,
            ArgAccess::Scalar, ArgAccess::Scalar, ArgAccess::Scalar};
  K.Fn = [](const ItemCtx &Ctx, const ArgsView &Args) {
    const float *A = Args.bufferAs<float>(0);
    float *C = Args.bufferAs<float>(1);
    float Alpha = static_cast<float>(Args.f64(2));
    float Beta = static_cast<float>(Args.f64(3));
    int64_t N = Args.i64(4), M = Args.i64(5);
    int64_t J = static_cast<int64_t>(Ctx.GlobalId.X);
    int64_t I = static_cast<int64_t>(Ctx.GlobalId.Y);
    if (I >= N || J >= N)
      return;
    float Sum = 0;
    for (int64_t L = 0; L < M; ++L)
      Sum += A[I * M + L] * A[J * M + L];
    C[I * N + J] = Beta * C[I * N + J] + Alpha * Sum;
  };
  K.GroupFn = [](const Dim3 &G, const Dim3 &Local, const ArgsView &Args) {
    const float *A = Args.bufferAs<float>(0);
    float *C = Args.bufferAs<float>(1);
    float Alpha = static_cast<float>(Args.f64(2));
    float Beta = static_cast<float>(Args.f64(3));
    int64_t N = Args.i64(4), M = Args.i64(5);
    GroupBox Box = groupBox(G, Local, N, N);
    for (int64_t I0 = Box.Y0; I0 < Box.Y1; I0 += TileRows)
      for (int64_t J0 = Box.X0; J0 < Box.X1; J0 += TileItems)
        syrkTile(A, C, Alpha, Beta, N, M, I0, std::min(I0 + TileRows, Box.Y1),
                 J0, std::min(J0 + TileItems, Box.X1));
  };
  K.Cost = [](const CostQuery &Q) {
    double N = static_cast<double>(Q.Scalars[4].IntValue);
    double M = static_cast<double>(Q.Scalars[5].IntValue);
    hw::WorkItemCost C;
    C.Flops = 2 * M + 2;
    // Rows are reused across the work-group; effective off-chip traffic per
    // item is small on both devices.
    C.BytesRead = 32;
    C.BytesWritten = 4;
    C.GpuCoalescing = 0.9;
    C.GpuEfficiency = syrkGpuEfficiency(N);
    C.CpuFlopEfficiency = 1.9; // Compiler vectorizes the unit-stride dot.
    C.CpuMemEfficiency = 0.9;
    C.LoopTripCount = M;
    C.NoUnrollPenalty = 1.7; // Short multiply-add body suffers most.
    // The FluidiCL-transformed kernel happens to cache better on the GPU
    // (observed in the paper for SYRK, section 9.1).
    C.GpuModifiedKernelBonus = 1.3;
    return C;
  };
  R.add(std::move(K));
}

//===- kern/polybench/Syr2k.cpp - SYR2K (C = aAB^T + aBA^T + bC) ---------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SYR2K from Polybench: the second rank-2k update benchmark in the paper's
/// suite (Table 2 lists it with a different input size than SYRK). Like
/// SYRK it is compute bound with comparable CPU/GPU speeds, so cooperative
/// execution wins over the best single device.
///
//===----------------------------------------------------------------------===//

#include "kern/polybench/PolybenchKernels.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::kern;
using namespace fcl::kern::poly;

namespace {

/// Runs items (I, J), I in [I0, I1) and J in [J0, J1), at most TileRows by
/// TileItems. Each L block of the items' rows of A and of B is transposed
/// into a tile, and each row I's sums advance over both in four vectors,
/// one lane per item. The sums carry from block to block, so each item adds
/// A[I][L] * B[J][L] + B[I][L] * A[J][L] in L order, as the per-item body
/// does.
void syr2kTile(const float *A, const float *B, float *C, float Alpha,
               float Beta, int64_t N, int64_t M, int64_t I0, int64_t I1,
               int64_t J0, int64_t J1) {
  Tile TA, TB;
  TileSums Sums = {};
  for (int64_t L0 = 0; L0 < M; L0 += TileL) {
    int64_t Len = std::min(TileL, M - L0);
    transposeRows(TA, A, M, J0, J1, L0, Len);
    transposeRows(TB, B, M, J0, J1, L0, Len);
    for (int64_t I = I0; I < I1; ++I) {
      const float *AI = A + I * M + L0, *BI = B + I * M + L0;
      Float4 *S = Sums[I - I0];
      Float4 S0 = S[0], S1 = S[1], S2 = S[2], S3 = S[3];
      for (int64_t L = 0; L < Len; ++L) {
        S0 += AI[L] * TB[L][0] + BI[L] * TA[L][0];
        S1 += AI[L] * TB[L][1] + BI[L] * TA[L][1];
        S2 += AI[L] * TB[L][2] + BI[L] * TA[L][2];
        S3 += AI[L] * TB[L][3] + BI[L] * TA[L][3];
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

void fcl::kern::registerSyr2kKernels(Registry &R) {
  // C[i][j] = beta*C[i][j] + alpha * sum_k (A[i][k]B[j][k] + B[i][k]A[j][k]).
  // Args: 0=A(In) 1=B(In) 2=C(InOut) 3=alpha 4=beta 5=N 6=M.
  KernelInfo K;
  K.Name = "syr2k_kernel";
  K.RowContiguousOutput = true;
  K.Args = {ArgAccess::In,     ArgAccess::In,     ArgAccess::InOut,
            ArgAccess::Scalar, ArgAccess::Scalar, ArgAccess::Scalar,
            ArgAccess::Scalar};
  K.Fn = [](const ItemCtx &Ctx, const ArgsView &Args) {
    const float *A = Args.bufferAs<float>(0);
    const float *B = Args.bufferAs<float>(1);
    float *C = Args.bufferAs<float>(2);
    float Alpha = static_cast<float>(Args.f64(3));
    float Beta = static_cast<float>(Args.f64(4));
    int64_t N = Args.i64(5), M = Args.i64(6);
    int64_t J = static_cast<int64_t>(Ctx.GlobalId.X);
    int64_t I = static_cast<int64_t>(Ctx.GlobalId.Y);
    if (I >= N || J >= N)
      return;
    float Sum = 0;
    for (int64_t L = 0; L < M; ++L)
      Sum += A[I * M + L] * B[J * M + L] + B[I * M + L] * A[J * M + L];
    C[I * N + J] = Beta * C[I * N + J] + Alpha * Sum;
  };
  K.GroupFn = [](const Dim3 &G, const Dim3 &Local, const ArgsView &Args) {
    const float *A = Args.bufferAs<float>(0);
    const float *B = Args.bufferAs<float>(1);
    float *C = Args.bufferAs<float>(2);
    float Alpha = static_cast<float>(Args.f64(3));
    float Beta = static_cast<float>(Args.f64(4));
    int64_t N = Args.i64(5), M = Args.i64(6);
    GroupBox Box = groupBox(G, Local, N, N);
    for (int64_t I0 = Box.Y0; I0 < Box.Y1; I0 += TileRows)
      for (int64_t J0 = Box.X0; J0 < Box.X1; J0 += TileItems)
        syr2kTile(A, B, C, Alpha, Beta, N, M, I0,
                  std::min(I0 + TileRows, Box.Y1), J0,
                  std::min(J0 + TileItems, Box.X1));
  };
  K.Cost = [](const CostQuery &Q) {
    double N = static_cast<double>(Q.Scalars[5].IntValue);
    double M = static_cast<double>(Q.Scalars[6].IntValue);
    hw::WorkItemCost C;
    C.Flops = 4 * M + 2;
    C.BytesRead = 64;
    C.BytesWritten = 4;
    C.GpuCoalescing = 0.9;
    // Twice the register pressure of SYRK lowers occupancy a little on top
    // of the same cache-capacity effect.
    C.GpuEfficiency = 0.032 * std::min(1.0, 1024.0 / N);
    C.CpuFlopEfficiency = 1.1;
    C.CpuMemEfficiency = 0.9;
    C.LoopTripCount = M;
    C.NoUnrollPenalty = 1.6;
    C.GpuModifiedKernelBonus = 1.25;
    return C;
  };
  R.add(std::move(K));
}

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

/// Work-items SYR2K's group body runs together along a row of C.
constexpr int Syr2kBlock = 4;

/// Runs items (I, J) .. (I, J + Items - 1): their rank-2 dot products over
/// rows I of A and B side by side, each summed in the per-item body's order
/// (Items == 1 is that body). Unrolled so the sums stay in registers at -O2
/// too.
template <int Items>
void syr2kItems(const float *A, const float *B, float *C, float Alpha,
                float Beta, int64_t N, int64_t M, int64_t I, int64_t J) {
  float Sum[Items] = {};
  for (int64_t L = 0; L < M; ++L)
#pragma GCC unroll 4
    for (int K = 0; K < Items; ++K)
      Sum[K] += A[I * M + L] * B[(J + K) * M + L] +
                B[I * M + L] * A[(J + K) * M + L];
  for (int K = 0; K < Items; ++K)
    C[I * N + J + K] = Beta * C[I * N + J + K] + Alpha * Sum[K];
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
    for (int64_t I = Box.Y0; I < Box.Y1; ++I) {
      int64_t J = Box.X0;
      for (; J + Syr2kBlock <= Box.X1; J += Syr2kBlock)
        syr2kItems<Syr2kBlock>(A, B, C, Alpha, Beta, N, M, I, J);
      for (; J < Box.X1; ++J)
        syr2kItems<1>(A, B, C, Alpha, Beta, N, M, I, J);
    }
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

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

/// Work-items SYRK's group body runs together along a row of C.
constexpr int SyrkBlock = 8;

/// Runs items (I, J) .. (I, J + Items - 1): their dot products over row I
/// of A side by side, each summed in the per-item body's order (Items == 1
/// is that body). Unrolled so the sums stay in registers at -O2 too.
template <int Items>
void syrkItems(const float *A, float *C, float Alpha, float Beta, int64_t N,
               int64_t M, int64_t I, int64_t J) {
  float Sum[Items] = {};
  for (int64_t L = 0; L < M; ++L)
#pragma GCC unroll 8
    for (int K = 0; K < Items; ++K)
      Sum[K] += A[I * M + L] * A[(J + K) * M + L];
  for (int K = 0; K < Items; ++K)
    C[I * N + J + K] = Beta * C[I * N + J + K] + Alpha * Sum[K];
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
    for (int64_t I = Box.Y0; I < Box.Y1; ++I) {
      int64_t J = Box.X0;
      for (; J + SyrkBlock <= Box.X1; J += SyrkBlock)
        syrkItems<SyrkBlock>(A, C, Alpha, Beta, N, M, I, J);
      for (; J < Box.X1; ++J)
        syrkItems<1>(A, C, Alpha, Beta, N, M, I, J);
    }
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

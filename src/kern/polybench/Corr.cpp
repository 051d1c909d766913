//===- kern/polybench/Corr.cpp - CORR (correlation matrix) ---------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// CORR from Polybench: four kernels (column means, column standard
/// deviations, centering, and the pairwise correlation matrix). The
/// correlation kernel dominates and prefers the GPU with the baseline
/// (GPU-oriented) code. The paper's section 6.6 / Table 3 experiment gives
/// FluidiCL a hand-optimized CPU variant of that kernel (loops interchanged
/// for cache locality) and shows online profiling picking it automatically;
/// we register "corr_corr_kernel_cpuopt" as that variant - functionally
/// identical, different cost profile.
///
//===----------------------------------------------------------------------===//

#include "kern/polybench/PolybenchKernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace fcl;
using namespace fcl::kern;
using namespace fcl::kern::poly;

namespace {

/// Shared body of the correlation kernel (both variants compute exactly
/// this). One work-item per (J1, J2) pair; J2 < J1 pairs are skipped (the
/// symmetric element is written by the J2 <= J1 item).
void corrBody(const ItemCtx &Ctx, const ArgsView &Args) {
  const float *Data = Args.bufferAs<float>(0);
  float *Corr = Args.bufferAs<float>(1);
  int64_t N = Args.i64(2), M = Args.i64(3);
  int64_t J2 = static_cast<int64_t>(Ctx.GlobalId.X);
  int64_t J1 = static_cast<int64_t>(Ctx.GlobalId.Y);
  if (J1 >= M || J2 >= M || J2 < J1)
    return;
  if (J1 == J2) {
    Corr[J1 * M + J1] = 1.0f;
    return;
  }
  float Sum = 0;
  for (int64_t I = 0; I < N; ++I)
    Sum += Data[I * M + J1] * Data[I * M + J2];
  Corr[J1 * M + J2] = Sum;
  Corr[J2 * M + J1] = Sum;
}

/// Most items of one J1 row whose sums corrGroupBody advances together.
constexpr int64_t CorrBlock = 32;

/// Four floats from \p P, which need not be aligned.
Float4 load4(const float *P) {
  Float4 V = {};
  std::memcpy(&V, P, sizeof V);
  return V;
}

/// The sums of the CorrBlock items (J1, J2 + K) into \p Sum, advanced over
/// I in eight vectors, one lane per item, each in corrBody's order.
void corrFullBlock(const float *Data, int64_t N, int64_t M, int64_t J1,
                   int64_t J2, float *Sum) {
  static_assert(CorrBlock == 32, "eight four-lane sums");
  Float4 S0 = {}, S1 = {}, S2 = {}, S3 = {}, S4 = {}, S5 = {}, S6 = {},
         S7 = {};
  for (int64_t I = 0; I < N; ++I) {
    float D1 = Data[I * M + J1];
    const float *Row = Data + I * M + J2;
    S0 += D1 * load4(Row);
    S1 += D1 * load4(Row + 4);
    S2 += D1 * load4(Row + 8);
    S3 += D1 * load4(Row + 12);
    S4 += D1 * load4(Row + 16);
    S5 += D1 * load4(Row + 20);
    S6 += D1 * load4(Row + 24);
    S7 += D1 * load4(Row + 28);
  }
  const Float4 S[] = {S0, S1, S2, S3, S4, S5, S6, S7};
  std::memcpy(Sum, S, sizeof S);
}

/// Group body of the correlation kernel: for each J1 row of the group, the
/// sums of up to CorrBlock items (J1, J2) advance together over I, each in
/// corrBody's order, reading the contiguous J2 run of Data's row I. A full
/// block keeps its sums in vectors (corrFullBlock), a partial one in floats.
void corrGroupBody(const Dim3 &G, const Dim3 &Local, const ArgsView &Args) {
  const float *Data = Args.bufferAs<float>(0);
  float *Corr = Args.bufferAs<float>(1);
  int64_t N = Args.i64(2), M = Args.i64(3);
  GroupBox Box = groupBox(G, Local, M, M);
  for (int64_t J1 = Box.Y0; J1 < Box.Y1; ++J1) {
    int64_t J2 = std::max(Box.X0, J1);
    if (J2 == J1 && J2 < Box.X1) {
      Corr[J1 * M + J1] = 1.0f;
      ++J2;
    }
    for (; J2 < Box.X1; J2 += CorrBlock) {
      int64_t Width = std::min(CorrBlock, Box.X1 - J2);
      float Sum[CorrBlock] = {};
      if (Width == CorrBlock)
        corrFullBlock(Data, N, M, J1, J2, Sum);
      else
        for (int64_t I = 0; I < N; ++I) {
          float D1 = Data[I * M + J1];
          const float *Row = Data + I * M + J2;
          for (int64_t K = 0; K < Width; ++K)
            Sum[K] += D1 * Row[K];
        }
      for (int64_t K = 0; K < Width; ++K) {
        Corr[J1 * M + J2 + K] = Sum[K];
        Corr[(J2 + K) * M + J1] = Sum[K];
      }
    }
  }
}

} // namespace

void fcl::kern::registerCorrKernels(Registry &R) {
  // Kernel 1: mean[j] = sum_i data[i][j] / N.
  // Args: 0=data(In) 1=mean(Out) 2=N 3=M.
  {
    KernelInfo K;
    K.Name = "corr_mean_kernel";
    K.RowContiguousOutput = true;
    K.Args = {ArgAccess::In, ArgAccess::Out, ArgAccess::Scalar,
              ArgAccess::Scalar};
    K.Fn = [](const ItemCtx &Ctx, const ArgsView &Args) {
      const float *Data = Args.bufferAs<float>(0);
      float *Mean = Args.bufferAs<float>(1);
      int64_t N = Args.i64(2), M = Args.i64(3);
      int64_t J = static_cast<int64_t>(Ctx.GlobalId.X);
      if (J >= M)
        return;
      float Sum = 0;
      for (int64_t I = 0; I < N; ++I)
        Sum += Data[I * M + J];
      Mean[J] = Sum / static_cast<float>(N);
    };
    K.Cost = [](const CostQuery &Q) {
      double N = static_cast<double>(Q.Scalars[2].IntValue);
      return dotCost(N, 4 * N, /*GpuCoal=*/0.9, /*GpuEff=*/0.5,
                     /*CpuFlopEff=*/0.6, /*CpuMemEff=*/0.1);
    };
    R.add(std::move(K));
  }

  // Kernel 2: std[j] = sqrt(sum_i (data[i][j]-mean[j])^2 / N), flushed to 1
  // when tiny (Polybench convention so centering never divides by ~0).
  // Args: 0=data(In) 1=mean(In) 2=std(Out) 3=N 4=M.
  {
    KernelInfo K;
    K.Name = "corr_std_kernel";
    K.RowContiguousOutput = true;
    K.Args = {ArgAccess::In, ArgAccess::In, ArgAccess::Out, ArgAccess::Scalar,
              ArgAccess::Scalar};
    K.Fn = [](const ItemCtx &Ctx, const ArgsView &Args) {
      const float *Data = Args.bufferAs<float>(0);
      const float *Mean = Args.bufferAs<float>(1);
      float *Std = Args.bufferAs<float>(2);
      int64_t N = Args.i64(3), M = Args.i64(4);
      int64_t J = static_cast<int64_t>(Ctx.GlobalId.X);
      if (J >= M)
        return;
      float Sum = 0;
      for (int64_t I = 0; I < N; ++I) {
        float D = Data[I * M + J] - Mean[J];
        Sum += D * D;
      }
      float Var = Sum / static_cast<float>(N);
      float S = std::sqrt(Var);
      Std[J] = S <= 0.1f ? 1.0f : S;
    };
    K.Cost = [](const CostQuery &Q) {
      double N = static_cast<double>(Q.Scalars[3].IntValue);
      return dotCost(N, 4 * N, /*GpuCoal=*/0.9, /*GpuEff=*/0.5,
                     /*CpuFlopEff=*/0.6, /*CpuMemEff=*/0.1);
    };
    R.add(std::move(K));
  }

  // Kernel 3: data[i][j] = (data[i][j] - mean[j]) / (sqrt(N)*std[j]).
  // Args: 0=data(InOut) 1=mean(In) 2=std(In) 3=N 4=M.
  {
    KernelInfo K;
    K.Name = "corr_center_kernel";
    K.RowContiguousOutput = true;
    K.Args = {ArgAccess::InOut, ArgAccess::In, ArgAccess::In,
              ArgAccess::Scalar, ArgAccess::Scalar};
    K.Fn = [](const ItemCtx &Ctx, const ArgsView &Args) {
      float *Data = Args.bufferAs<float>(0);
      const float *Mean = Args.bufferAs<float>(1);
      const float *Std = Args.bufferAs<float>(2);
      int64_t N = Args.i64(3), M = Args.i64(4);
      int64_t J = static_cast<int64_t>(Ctx.GlobalId.X);
      int64_t I = static_cast<int64_t>(Ctx.GlobalId.Y);
      if (I >= N || J >= M)
        return;
      Data[I * M + J] =
          (Data[I * M + J] - Mean[J]) /
          (std::sqrt(static_cast<float>(N)) * Std[J]);
    };
    K.Cost = [](const CostQuery &) {
      hw::WorkItemCost C;
      C.Flops = 3;
      C.BytesRead = 4;
      C.BytesWritten = 4;
      C.GpuCoalescing = 0.9;
      C.GpuEfficiency = 0.4;
      C.CpuFlopEfficiency = 0.8;
      C.CpuMemEfficiency = 0.6;
      C.LoopTripCount = 1;
      return C;
    };
    R.add(std::move(K));
  }

  // Kernel 4 (dominant): corr[j1][j2] = dot of centered columns j1, j2.
  // Args: 0=data(In) 1=corr(Out) 2=N 3=M.
  {
    KernelInfo K;
    K.Name = "corr_corr_kernel";
    K.Args = {ArgAccess::In, ArgAccess::Out, ArgAccess::Scalar,
              ArgAccess::Scalar};
    K.Fn = corrBody;
    K.GroupFn = corrGroupBody;
    K.Cost = [](const CostQuery &Q) {
      double N = static_cast<double>(Q.Scalars[2].IntValue);
      hw::WorkItemCost C;
      // Half of the (J1, J2) items bail out early: ~N flops on average.
      C.Flops = N;
      C.BytesRead = 24;
      C.BytesWritten = 4;
      C.GpuCoalescing = 0.9;
      C.GpuEfficiency = 0.03; // Divergent triangular iteration space.
      // Baseline (GPU-oriented) code walks columns: scalar + cache hostile
      // on the CPU.
      C.CpuFlopEfficiency = 0.2;
      C.CpuMemEfficiency = 0.3;
      C.LoopTripCount = N;
      C.NoUnrollPenalty = 1.5;
      return C;
    };
    K.Variants = {"corr_corr_kernel_cpuopt"};
    R.add(std::move(K));
  }

  // Hand-optimized CPU variant of kernel 4 (loops interchanged for cache
  // locality, as in the paper's Table 3 experiment). Same output.
  {
    KernelInfo K;
    K.Name = "corr_corr_kernel_cpuopt";
    K.Args = {ArgAccess::In, ArgAccess::Out, ArgAccess::Scalar,
              ArgAccess::Scalar};
    K.Fn = corrBody;
    K.GroupFn = corrGroupBody;
    K.Cost = [](const CostQuery &Q) {
      double N = static_cast<double>(Q.Scalars[2].IntValue);
      hw::WorkItemCost C;
      C.Flops = N;
      C.BytesRead = 24;
      C.BytesWritten = 4;
      // Interchanged loops hurt the GPU (uncoalesced) but vectorize and
      // cache beautifully on the CPU.
      C.GpuCoalescing = 0.15;
      C.GpuEfficiency = 0.01;
      C.CpuFlopEfficiency = 3.0;
      C.CpuMemEfficiency = 0.9;
      C.LoopTripCount = N;
      C.NoUnrollPenalty = 1.2;
      return C;
    };
    R.add(std::move(K));
  }
}

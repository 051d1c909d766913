//===- tests/kern_polybench_test.cpp - Kernel body tests -------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Validates every registered kernel body against closed-form host math on
/// small inputs (the workload-level tests then only need to trust these).
///
//===----------------------------------------------------------------------===//

#include "kern/Kernel.h"
#include "kern/Registry.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace fcl;
using namespace fcl::kern;

namespace {

/// Runs \p Kernel functionally over the full \p Range.
void runKernel(const KernelInfo &Kernel, const NDRange &Range,
               const ArgsView &Args) {
  executeGroups(Kernel, Range, Args, 0, Range.totalGroups());
}

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(R.nextInRange(0.1, 1.0));
  return V;
}

ArgValue bufArg(std::vector<float> &V) {
  return ArgValue::buffer(reinterpret_cast<std::byte *>(V.data()),
                          V.size() * sizeof(float));
}

TEST(RegistryTest, AllBuiltinsPresent) {
  Registry &R = Registry::builtin();
  for (const char *Name :
       {"atax_kernel1", "atax_kernel2", "bicg_kernel1", "bicg_kernel2",
        "corr_mean_kernel", "corr_std_kernel", "corr_center_kernel",
        "corr_corr_kernel", "corr_corr_kernel_cpuopt", "gesummv_kernel",
        "syrk_kernel", "syr2k_kernel", "vec_add", "saxpy", "vec_scale",
        "block_sum", "md_merge_kernel"})
    EXPECT_NE(R.find(Name), nullptr) << Name;
  EXPECT_EQ(R.find("no_such_kernel"), nullptr);
}

TEST(RegistryDeathTest, GetUnknownKernelAborts) {
  EXPECT_DEATH(Registry::builtin().get("bogus_kernel"), "unknown kernel");
}

TEST(RegistryDeathTest, GroupBodyNeedsNoBarriersOrLocalMemory) {
  auto Make = [](int NumPhases, uint64_t LocalBytes) {
    KernelInfo K;
    K.Name = "grouped";
    K.Args = {ArgAccess::Scalar};
    K.NumPhases = NumPhases;
    K.LocalBytes = LocalBytes;
    K.Fn = [](const ItemCtx &, const ArgsView &) {};
    K.GroupFn = [](const Dim3 &, const Dim3 &, const ArgsView &) {};
    K.Cost = [](const CostQuery &) { return hw::WorkItemCost(); };
    return K;
  };
  Registry R;
  R.add(Make(1, 0));
  EXPECT_EQ(R.size(), 1u);
  EXPECT_DEATH(Registry().add(Make(2, 0)), "work-group body");
  EXPECT_DEATH(Registry().add(Make(1, 64)), "work-group body");
}

TEST(RegistryTest, WrittenArgsComputed) {
  const KernelInfo &Syrk = Registry::builtin().get("syrk_kernel");
  EXPECT_EQ(Syrk.writtenArgs(), (std::vector<size_t>{1}));
  const KernelInfo &Atax = Registry::builtin().get("atax_kernel1");
  EXPECT_EQ(Atax.writtenArgs(), (std::vector<size_t>{2}));
}

TEST(RegistryTest, CorrVariantDeclared) {
  const KernelInfo &Corr = Registry::builtin().get("corr_corr_kernel");
  ASSERT_EQ(Corr.Variants.size(), 1u);
  EXPECT_EQ(Corr.Variants[0], "corr_corr_kernel_cpuopt");
}

// --- ATAX ---------------------------------------------------------------------

TEST(PolybenchKernelTest, AtaxMatchesClosedForm) {
  const int64_t NX = 64, NY = 64;
  auto A = randomVec(NX * NY, 1);
  auto X = randomVec(NY, 2);
  std::vector<float> Tmp(NX, 0), Y(NY, 0);

  Registry &R = Registry::builtin();
  ArgsView Args1(std::vector<ArgValue>{bufArg(A), bufArg(X), bufArg(Tmp),
                                       ArgValue::scalarInt(NX),
                                       ArgValue::scalarInt(NY)});
  runKernel(R.get("atax_kernel1"), NDRange::of1D(NX, 32), Args1);
  ArgsView Args2(std::vector<ArgValue>{bufArg(A), bufArg(Tmp), bufArg(Y),
                                       ArgValue::scalarInt(NX),
                                       ArgValue::scalarInt(NY)});
  runKernel(R.get("atax_kernel2"), NDRange::of1D(NY, 32), Args2);

  for (int64_t I = 0; I < NX; ++I) {
    float Want = 0;
    for (int64_t J = 0; J < NY; ++J)
      Want += A[I * NY + J] * X[J];
    EXPECT_FLOAT_EQ(Tmp[I], Want);
  }
  for (int64_t J = 0; J < NY; ++J) {
    float Want = 0;
    for (int64_t I = 0; I < NX; ++I)
      Want += A[I * NY + J] * Tmp[I];
    EXPECT_FLOAT_EQ(Y[J], Want);
  }
}

// --- BICG ---------------------------------------------------------------------

TEST(PolybenchKernelTest, BicgMatchesClosedForm) {
  const int64_t N = 64;
  auto A = randomVec(N * N, 3);
  auto P = randomVec(N, 4);
  auto RV = randomVec(N, 5);
  std::vector<float> Q(N, 0), S(N, 0);

  Registry &Reg = Registry::builtin();
  ArgsView Args1(std::vector<ArgValue>{bufArg(A), bufArg(P), bufArg(Q),
                                       ArgValue::scalarInt(N),
                                       ArgValue::scalarInt(N)});
  runKernel(Reg.get("bicg_kernel1"), NDRange::of1D(N, 32), Args1);
  ArgsView Args2(std::vector<ArgValue>{bufArg(A), bufArg(RV), bufArg(S),
                                       ArgValue::scalarInt(N),
                                       ArgValue::scalarInt(N)});
  runKernel(Reg.get("bicg_kernel2"), NDRange::of1D(N, 32), Args2);

  for (int64_t I = 0; I < N; ++I) {
    float Want = 0;
    for (int64_t J = 0; J < N; ++J)
      Want += A[I * N + J] * P[J];
    EXPECT_FLOAT_EQ(Q[I], Want);
  }
  for (int64_t J = 0; J < N; ++J) {
    float Want = 0;
    for (int64_t I = 0; I < N; ++I)
      Want += A[I * N + J] * RV[I];
    EXPECT_FLOAT_EQ(S[J], Want);
  }
}

// --- GESUMMV -------------------------------------------------------------------

TEST(PolybenchKernelTest, GesummvMatchesClosedForm) {
  const int64_t N = 64;
  auto A = randomVec(N * N, 6);
  auto B = randomVec(N * N, 7);
  auto X = randomVec(N, 8);
  std::vector<float> Y(N, 0);
  float Alpha = 1.5f, Beta = 1.2f;

  ArgsView Args(std::vector<ArgValue>{
      bufArg(A), bufArg(B), bufArg(X), bufArg(Y), ArgValue::scalarFp(Alpha),
      ArgValue::scalarFp(Beta), ArgValue::scalarInt(N)});
  runKernel(Registry::builtin().get("gesummv_kernel"), NDRange::of1D(N, 32),
            Args);

  for (int64_t I = 0; I < N; ++I) {
    float SA = 0, SB = 0;
    for (int64_t J = 0; J < N; ++J) {
      SA += A[I * N + J] * X[J];
      SB += B[I * N + J] * X[J];
    }
    EXPECT_FLOAT_EQ(Y[I], Alpha * SA + Beta * SB);
  }
}

// --- SYRK / SYR2K -----------------------------------------------------------------

TEST(PolybenchKernelTest, SyrkMatchesClosedForm) {
  const int64_t N = 32, M = 32;
  auto A = randomVec(N * M, 9);
  auto C = randomVec(N * N, 10);
  std::vector<float> COut = C;
  float Alpha = 1.3f, Beta = 0.7f;

  ArgsView Args(std::vector<ArgValue>{
      bufArg(A), bufArg(COut), ArgValue::scalarFp(Alpha),
      ArgValue::scalarFp(Beta), ArgValue::scalarInt(N),
      ArgValue::scalarInt(M)});
  runKernel(Registry::builtin().get("syrk_kernel"),
            NDRange::of2D(N, N, 32, 8), Args);

  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Sum = 0;
      for (int64_t L = 0; L < M; ++L)
        Sum += A[I * M + L] * A[J * M + L];
      EXPECT_FLOAT_EQ(COut[I * N + J], Beta * C[I * N + J] + Alpha * Sum);
    }
}

TEST(PolybenchKernelTest, Syr2kMatchesClosedForm) {
  const int64_t N = 32, M = 32;
  auto A = randomVec(N * M, 11);
  auto B = randomVec(N * M, 12);
  auto C = randomVec(N * N, 13);
  std::vector<float> COut = C;
  float Alpha = 1.1f, Beta = 0.6f;

  ArgsView Args(std::vector<ArgValue>{
      bufArg(A), bufArg(B), bufArg(COut), ArgValue::scalarFp(Alpha),
      ArgValue::scalarFp(Beta), ArgValue::scalarInt(N),
      ArgValue::scalarInt(M)});
  runKernel(Registry::builtin().get("syr2k_kernel"),
            NDRange::of2D(N, N, 32, 8), Args);

  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Sum = 0;
      for (int64_t L = 0; L < M; ++L)
        Sum += A[I * M + L] * B[J * M + L] + B[I * M + L] * A[J * M + L];
      EXPECT_FLOAT_EQ(COut[I * N + J], Beta * C[I * N + J] + Alpha * Sum);
    }
}

// --- CORR ---------------------------------------------------------------------

TEST(PolybenchKernelTest, CorrMeanStdCenterMatchClosedForm) {
  const int64_t N = 32, M = 32;
  auto Data = randomVec(N * M, 14);
  std::vector<float> Orig = Data;
  std::vector<float> Mean(M, 0), Std(M, 0);

  Registry &Reg = Registry::builtin();
  ArgsView MeanArgs(std::vector<ArgValue>{bufArg(Data), bufArg(Mean),
                                          ArgValue::scalarInt(N),
                                          ArgValue::scalarInt(M)});
  runKernel(Reg.get("corr_mean_kernel"), NDRange::of1D(M, 32), MeanArgs);
  ArgsView StdArgs(std::vector<ArgValue>{bufArg(Data), bufArg(Mean),
                                         bufArg(Std), ArgValue::scalarInt(N),
                                         ArgValue::scalarInt(M)});
  runKernel(Reg.get("corr_std_kernel"), NDRange::of1D(M, 32), StdArgs);
  ArgsView CenterArgs(std::vector<ArgValue>{bufArg(Data), bufArg(Mean),
                                            bufArg(Std),
                                            ArgValue::scalarInt(N),
                                            ArgValue::scalarInt(M)});
  runKernel(Reg.get("corr_center_kernel"), NDRange::of2D(M, N, 32, 8),
            CenterArgs);

  for (int64_t J = 0; J < M; ++J) {
    float WantMean = 0;
    for (int64_t I = 0; I < N; ++I)
      WantMean += Orig[I * M + J];
    WantMean /= static_cast<float>(N);
    EXPECT_FLOAT_EQ(Mean[J], WantMean);

    float Var = 0;
    for (int64_t I = 0; I < N; ++I) {
      float D = Orig[I * M + J] - WantMean;
      Var += D * D;
    }
    Var /= static_cast<float>(N);
    float WantStd = std::sqrt(Var) <= 0.1f ? 1.0f : std::sqrt(Var);
    EXPECT_FLOAT_EQ(Std[J], WantStd);

    for (int64_t I = 0; I < N; ++I)
      EXPECT_FLOAT_EQ(Data[I * M + J],
                      (Orig[I * M + J] - WantMean) /
                          (std::sqrt(static_cast<float>(N)) * WantStd));
  }
}

TEST(PolybenchKernelTest, CorrKernelSymmetricWithUnitDiagonal) {
  const int64_t N = 32, M = 32;
  auto Data = randomVec(N * M, 15);
  std::vector<float> Corr(M * M, -1);

  ArgsView Args(std::vector<ArgValue>{bufArg(Data), bufArg(Corr),
                                      ArgValue::scalarInt(N),
                                      ArgValue::scalarInt(M)});
  runKernel(Registry::builtin().get("corr_corr_kernel"),
            NDRange::of2D(M, M, 32, 8), Args);

  for (int64_t J = 0; J < M; ++J)
    EXPECT_FLOAT_EQ(Corr[J * M + J], 1.0f);
  for (int64_t J1 = 0; J1 < M; ++J1)
    for (int64_t J2 = J1 + 1; J2 < M; ++J2) {
      float Want = 0;
      for (int64_t I = 0; I < N; ++I)
        Want += Data[I * M + J1] * Data[I * M + J2];
      EXPECT_FLOAT_EQ(Corr[J1 * M + J2], Want);
      EXPECT_FLOAT_EQ(Corr[J2 * M + J1], Corr[J1 * M + J2]);
    }
}

TEST(PolybenchKernelTest, CorrVariantsProduceIdenticalOutput) {
  const int64_t N = 32, M = 32;
  auto Data = randomVec(N * M, 16);
  std::vector<float> CorrA(M * M, 0), CorrB(M * M, 0);

  Registry &Reg = Registry::builtin();
  ArgsView ArgsA(std::vector<ArgValue>{bufArg(Data), bufArg(CorrA),
                                       ArgValue::scalarInt(N),
                                       ArgValue::scalarInt(M)});
  runKernel(Reg.get("corr_corr_kernel"), NDRange::of2D(M, M, 32, 8), ArgsA);
  ArgsView ArgsB(std::vector<ArgValue>{bufArg(Data), bufArg(CorrB),
                                       ArgValue::scalarInt(N),
                                       ArgValue::scalarInt(M)});
  runKernel(Reg.get("corr_corr_kernel_cpuopt"), NDRange::of2D(M, M, 32, 8),
            ArgsB);
  EXPECT_EQ(CorrA, CorrB);
}

// --- Group bodies ------------------------------------------------------------

/// How the equivalence test binds a kernel that has a group body, at
/// problem sizes (N, M): each argument's float count (0 for a scalar), each
/// scalar's value, and the extent of the items the problem covers.
struct GroupBodyCase {
  int64_t N = 0, M = 0;
  std::vector<uint64_t> Floats;
  std::vector<ArgValue> Scalars;
  uint64_t Width = 0, Height = 0;
};

GroupBodyCase groupBodyCase(const std::string &Name, int64_t N, int64_t M) {
  auto I = ArgValue::scalarInt;
  auto F = ArgValue::scalarFp;
  uint64_t NM = N * M, NN = N * N, MM = M * M;
  uint64_t Nu = N, Mu = M;
  if (Name == "syrk_kernel")
    return {N, M, {NM, NN, 0, 0, 0, 0}, {{}, {}, F(1.3), F(0.7), I(N), I(M)},
            Nu, Nu};
  if (Name == "syr2k_kernel")
    return {N,
            M,
            {NM, NM, NN, 0, 0, 0, 0},
            {{}, {}, {}, F(1.1), F(0.6), I(N), I(M)},
            Nu,
            Nu};
  if (Name == "corr_corr_kernel" || Name == "corr_corr_kernel_cpuopt")
    return {N, M, {NM, MM, 0, 0}, {{}, {}, I(N), I(M)}, Mu, Mu};
  ADD_FAILURE() << Name << " has a group body but no equivalence case";
  return {};
}

uint64_t roundUp(uint64_t X, uint64_t To) { return (X + To - 1) / To * To; }

/// Runs flat groups [Begin, End) of \p Kernel over \p Range once per item
/// through executeWorkGroup and once through executeGroups (which picks the
/// group body), from identical random buffers, and expects every buffer,
/// inputs included, to come out byte-identical.
void expectGroupBodyMatchesItems(const KernelInfo &Kernel,
                                 const GroupBodyCase &Case,
                                 const NDRange &Range, uint64_t Begin,
                                 uint64_t End, uint64_t Seed) {
  std::vector<std::vector<float>> PerItem(Case.Floats.size()),
      PerGroup(Case.Floats.size());
  std::vector<ArgValue> ItemArgs = Case.Scalars, GroupArgs = Case.Scalars;
  Rng R(Seed);
  for (size_t A = 0; A < Case.Floats.size(); ++A) {
    if (Case.Floats[A] == 0)
      continue;
    PerItem[A].resize(Case.Floats[A]);
    for (float &X : PerItem[A])
      X = static_cast<float>(R.nextInRange(-1.0, 1.0));
    PerGroup[A] = PerItem[A];
    ItemArgs[A] = bufArg(PerItem[A]);
    GroupArgs[A] = bufArg(PerGroup[A]);
  }
  const ArgsView ItemView(ItemArgs), GroupView(GroupArgs);
  for (uint64_t Flat = Begin; Flat < End; ++Flat)
    executeWorkGroup(Kernel, Range, unflattenGroupId(Flat, Range.numGroups()),
                     ItemView, nullptr);
  executeGroups(Kernel, Range, GroupView, Begin, End);
  for (size_t A = 0; A < Case.Floats.size(); ++A) {
    if (Case.Floats[A] == 0)
      continue;
    EXPECT_EQ(std::memcmp(PerItem[A].data(), PerGroup[A].data(),
                          PerItem[A].size() * sizeof(float)),
              0)
        << Kernel.Name << " argument " << A << " at N=" << Case.N
        << " M=" << Case.M << " on " << Range.globalSize().X
        << "x" << Range.globalSize().Y << " in groups of "
        << Range.localSize().X << "x" << Range.localSize().Y << ", groups ["
        << Begin << ", " << End << ")";
  }
}

TEST(KernelGroupBodyTest, MatchesPerItemBodyBitwise) {
  Registry &Reg = Registry::builtin();
  for (const char *Name : {"syrk_kernel", "syr2k_kernel", "corr_corr_kernel",
                           "corr_corr_kernel_cpuopt"})
    EXPECT_TRUE(Reg.get(Name).GroupFn) << Name;

  struct Shape {
    int64_t N, M;
    uint64_t RangeX, RangeY; // 0: the problem's extent rounded up
    uint64_t LocalX, LocalY;
  };
  const Shape Shapes[] = {
      {64, 40, 0, 0, 32, 8},
      {45, 77, 0, 0, 32, 8},
      {40, 40, 64, 64, 32, 8}, // Wider than the problem: guarded items run.
      {45, 77, 0, 0, 128, 2},  // Rows longer than one block of CORR sums.
      {37, 300, 0, 0, 32, 8},  // M past two SYRK/SYR2K tiles, with a tail.
  };
  uint64_t Seed = 1, Tested = 0;
  for (const std::string &Name : Reg.names()) {
    const KernelInfo &Kernel = Reg.get(Name);
    if (!Kernel.GroupFn)
      continue;
    ++Tested;
    for (const Shape &S : Shapes) {
      GroupBodyCase Case = groupBodyCase(Name, S.N, S.M);
      if (Case.Floats.empty())
        break;
      NDRange Range = NDRange::of2D(
          S.RangeX ? S.RangeX : roundUp(Case.Width, S.LocalX),
          S.RangeY ? S.RangeY : roundUp(Case.Height, S.LocalY), S.LocalX,
          S.LocalY);
      uint64_t Total = Range.totalGroups();
      // The full range, a GPU wave's head and a CPU subkernel's tail.
      expectGroupBodyMatchesItems(Kernel, Case, Range, 0, Total, Seed++);
      expectGroupBodyMatchesItems(Kernel, Case, Range, 0, Total / 3, Seed++);
      expectGroupBodyMatchesItems(Kernel, Case, Range, Total / 3 + 1, Total,
                                  Seed++);
    }
  }
  EXPECT_EQ(Tested, 4u);
}

// --- Vector / barrier kernels ----------------------------------------------------

TEST(VectorKernelTest, VecAdd) {
  const int64_t N = 128;
  auto A = randomVec(N, 17);
  auto B = randomVec(N, 18);
  std::vector<float> C(N, 0);
  ArgsView Args(std::vector<ArgValue>{bufArg(A), bufArg(B), bufArg(C),
                                      ArgValue::scalarInt(N)});
  runKernel(Registry::builtin().get("vec_add"), NDRange::of1D(N, 32), Args);
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(C[I], A[I] + B[I]);
}

TEST(VectorKernelTest, Saxpy) {
  const int64_t N = 128;
  auto X = randomVec(N, 19);
  auto Y = randomVec(N, 20);
  std::vector<float> YOut = Y;
  ArgsView Args(std::vector<ArgValue>{bufArg(X), bufArg(YOut),
                                      ArgValue::scalarFp(2.5),
                                      ArgValue::scalarInt(N)});
  runKernel(Registry::builtin().get("saxpy"), NDRange::of1D(N, 32), Args);
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(YOut[I], 2.5f * X[I] + Y[I]);
}

TEST(VectorKernelTest, BlockSumUsesBarrierPhases) {
  const int64_t N = 256;
  const uint64_t Local = 64;
  auto X = randomVec(N, 21);
  std::vector<float> Partial(N / Local, 0);
  ArgsView Args(std::vector<ArgValue>{bufArg(X), bufArg(Partial),
                                      ArgValue::scalarInt(N)});
  runKernel(Registry::builtin().get("block_sum"), NDRange::of1D(N, Local),
            Args);
  for (uint64_t G = 0; G < Partial.size(); ++G) {
    float Want = 0;
    for (uint64_t I = 0; I < Local; ++I)
      Want += X[G * Local + I];
    EXPECT_FLOAT_EQ(Partial[G], Want);
  }
}

// --- Merge kernel (paper Figure 9) ---------------------------------------------

class MergeKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(MergeKernelTest, CopiesOnlyDifferingElements) {
  int Granularity = GetParam();
  const uint64_t Bytes = 4096;
  Rng R(22);
  std::vector<std::byte> Orig(Bytes), Cpu(Bytes), Gpu(Bytes);
  for (uint64_t I = 0; I < Bytes; ++I) {
    Orig[I] = static_cast<std::byte>(R.next() & 0xFF);
    Gpu[I] = static_cast<std::byte>(R.next() & 0xFF); // GPU-computed data.
  }
  Cpu = Orig;
  // CPU computed a few scattered regions.
  std::vector<uint64_t> Changed;
  for (int C = 0; C < 32; ++C) {
    uint64_t At = R.nextBelow(Bytes / Granularity) *
                  static_cast<uint64_t>(Granularity);
    for (int B = 0; B < Granularity; ++B) {
      Cpu[At + static_cast<uint64_t>(B)] =
          static_cast<std::byte>(~static_cast<unsigned>(
              std::to_integer<unsigned>(Orig[At + static_cast<uint64_t>(B)])));
    }
    Changed.push_back(At);
  }
  std::vector<std::byte> GpuBefore = Gpu;

  const kern::KernelInfo &Merge =
      Registry::builtin().get("md_merge_kernel");
  uint64_t Items = (Bytes + MergeChunkBytes - 1) / MergeChunkBytes;
  uint64_t Global = (Items + 63) / 64 * 64;
  ArgsView Args(std::vector<ArgValue>{
      ArgValue::buffer(Cpu.data(), Bytes), ArgValue::buffer(Gpu.data(), Bytes),
      ArgValue::buffer(Orig.data(), Bytes),
      ArgValue::scalarInt(static_cast<int64_t>(Bytes)),
      ArgValue::scalarInt(Granularity)});
  runKernel(Merge, NDRange::of1D(Global, 64), Args);

  // Elements the CPU changed are copied; everything else keeps GPU data.
  for (uint64_t I = 0; I < Bytes; ++I) {
    bool InChanged = false;
    for (uint64_t At : Changed)
      if (I >= At && I < At + static_cast<uint64_t>(Granularity))
        InChanged = true;
    if (InChanged)
      EXPECT_EQ(Gpu[I], Cpu[I]) << "byte " << I;
    else
      EXPECT_EQ(Gpu[I], GpuBefore[I]) << "byte " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, MergeKernelTest,
                         ::testing::Values(1, 4, 8));

} // namespace

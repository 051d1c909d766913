//===- tests/extension_workloads_test.cpp - MVT/GEMM/2MM extension tests ---===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the extension workloads beyond the paper's six benchmarks:
/// kernel bodies against closed-form math, functional correctness under
/// every runtime, and the expected device-affinity behaviour.
///
//===----------------------------------------------------------------------===//

#include "fluidicl/Runtime.h"
#include "kern/Registry.h"
#include "mcl/CommandQueue.h"
#include "runtime/SingleDevice.h"
#include "socl/SoclRuntime.h"
#include "support/Rng.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

using namespace fcl;
using namespace fcl::work;

namespace {

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(R.nextInRange(0.1, 1.0));
  return V;
}

kern::ArgValue bufArg(std::vector<float> &V) {
  return kern::ArgValue::buffer(reinterpret_cast<std::byte *>(V.data()),
                                V.size() * sizeof(float));
}

void runKernel(const kern::KernelInfo &Kernel, const kern::NDRange &Range,
               const kern::ArgsView &Args) {
  kern::executeGroups(Kernel, Range, Args, 0, Range.totalGroups());
}

TEST(ExtensionKernelTest, MvtMatchesClosedForm) {
  const int64_t N = 64;
  auto A = randomVec(N * N, 31);
  auto Y1 = randomVec(N, 32);
  auto Y2 = randomVec(N, 33);
  auto X1 = randomVec(N, 34);
  auto X2 = randomVec(N, 35);
  std::vector<float> X1Out = X1, X2Out = X2;

  kern::Registry &Reg = kern::Registry::builtin();
  kern::ArgsView Args1(std::vector<kern::ArgValue>{
      bufArg(A), bufArg(Y1), bufArg(X1Out), kern::ArgValue::scalarInt(N)});
  runKernel(Reg.get("mvt_kernel1"), kern::NDRange::of1D(N, 32), Args1);
  kern::ArgsView Args2(std::vector<kern::ArgValue>{
      bufArg(A), bufArg(Y2), bufArg(X2Out), kern::ArgValue::scalarInt(N)});
  runKernel(Reg.get("mvt_kernel2"), kern::NDRange::of1D(N, 32), Args2);

  for (int64_t I = 0; I < N; ++I) {
    float W1 = X1[I], W2 = X2[I];
    for (int64_t J = 0; J < N; ++J) {
      W1 += A[I * N + J] * Y1[J];
      W2 += A[J * N + I] * Y2[J];
    }
    EXPECT_FLOAT_EQ(X1Out[I], W1);
    EXPECT_FLOAT_EQ(X2Out[I], W2);
  }
}

TEST(ExtensionKernelTest, GemmMatchesClosedForm) {
  const int64_t NI = 32, NJ = 32, NK = 32;
  auto A = randomVec(NI * NK, 36);
  auto B = randomVec(NK * NJ, 37);
  auto C = randomVec(NI * NJ, 38);
  std::vector<float> COut = C;
  float Alpha = 1.4f, Beta = 0.8f;

  kern::ArgsView Args(std::vector<kern::ArgValue>{
      bufArg(A), bufArg(B), bufArg(COut), kern::ArgValue::scalarFp(Alpha),
      kern::ArgValue::scalarFp(Beta), kern::ArgValue::scalarInt(NI),
      kern::ArgValue::scalarInt(NJ), kern::ArgValue::scalarInt(NK)});
  runKernel(kern::Registry::builtin().get("gemm_kernel"),
            kern::NDRange::of2D(NJ, NI, 32, 8), Args);

  for (int64_t I = 0; I < NI; ++I)
    for (int64_t J = 0; J < NJ; ++J) {
      float Sum = 0;
      for (int64_t L = 0; L < NK; ++L)
        Sum += A[I * NK + L] * B[L * NJ + J];
      EXPECT_FLOAT_EQ(COut[I * NJ + J], Beta * C[I * NJ + J] + Alpha * Sum);
    }
}

class ExtensionWorkloadTest : public ::testing::TestWithParam<size_t> {};

const std::vector<Workload> &smallExtensions() {
  static const std::vector<Workload> Suite = {
      makeMvt(192), makeGemm(96, 96, 96), make2mm(96), make3mm(96),
      makeCovar(128, 128)};
  return Suite;
}

TEST_P(ExtensionWorkloadTest, FluidiclFunctional) {
  const Workload &W = smallExtensions()[GetParam()];
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  fluidicl::Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, W, true);
  EXPECT_TRUE(Res.Valid) << W.Name << " err " << Res.MaxAbsError;
}

TEST_P(ExtensionWorkloadTest, SingleDeviceFunctional) {
  const Workload &W = smallExtensions()[GetParam()];
  for (mcl::DeviceKind Kind : {mcl::DeviceKind::Cpu, mcl::DeviceKind::Gpu}) {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
    runtime::SingleDeviceRuntime RT(Ctx, Kind);
    RunResult Res = runWorkload(RT, W, true);
    EXPECT_TRUE(Res.Valid) << W.Name << " on " << RT.name();
  }
}

TEST_P(ExtensionWorkloadTest, SoclFunctional) {
  const Workload &W = smallExtensions()[GetParam()];
  socl::PerfModel Model;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  socl::SoclRuntime RT(Ctx, socl::Policy::Eager, Model);
  RunResult Res = runWorkload(RT, W, true);
  EXPECT_TRUE(Res.Valid) << W.Name;
}

std::string extensionName(const ::testing::TestParamInfo<size_t> &Info) {
  static const char *Names[] = {"MVT", "GEMM", "TwoMM", "ThreeMM", "COVAR"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllExtensions, ExtensionWorkloadTest,
                         ::testing::Range<size_t>(0, 5), extensionName);

TEST(ExtensionBehaviourTest, MvtKernelsPreferDifferentDevices) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  fluidicl::Runtime RT(Ctx);
  runWorkload(RT, makeMvt(4096), false);
  auto Stats = RT.kernelStats();
  ASSERT_EQ(Stats.size(), 2u);
  double Cpu1 = static_cast<double>(Stats[0].CpuGroupsExecuted) /
                static_cast<double>(Stats[0].TotalGroups);
  double Cpu2 = static_cast<double>(Stats[1].CpuGroupsExecuted) /
                static_cast<double>(Stats[1].TotalGroups);
  EXPECT_GT(Cpu1, 0.5); // Row walk flows to the CPU.
  EXPECT_LT(Cpu2, 0.5); // Column walk flows to the GPU.
}

TEST(ExtensionBehaviourTest, FluidiclNeverMuchWorseThanBestOnExtensions) {
  RunConfig C;
  for (const Workload &W :
       {makeMvt(4096), makeGemm(1024, 1024, 1024), make2mm(1024)}) {
    double Cpu = timeUnder(RuntimeKind::CpuOnly, W, C).toSeconds();
    double Gpu = timeUnder(RuntimeKind::GpuOnly, W, C).toSeconds();
    double Fcl = timeUnder(RuntimeKind::FluidiCL, W, C).toSeconds();
    EXPECT_LE(Fcl, std::min(Cpu, Gpu) * 1.08) << W.Name;
  }
}

TEST(ExtensionBehaviourTest, TwoMmChainsThroughIntermediateBuffer) {
  // The second GEMM reads tmp, which the first GEMM wrote: the CPU side of
  // kernel 2 must wait for kernel 1's DH transfer (section 5.3 gate) and
  // results must still be exact.
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  fluidicl::Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, make2mm(96), true);
  EXPECT_TRUE(Res.Valid);
  auto Stats = RT.kernelStats();
  ASSERT_EQ(Stats.size(), 2u);
  EXPECT_GT(Stats[1].KernelId, Stats[0].KernelId);
}

TEST(ExtensionBehaviourTest, ExtendedSuiteContainsElevenWorkloads) {
  EXPECT_EQ(extendedSuite().size(), 11u);
}

TEST(ExtensionKernelTest, Jacobi2dMatchesClosedForm) {
  const int64_t N = 64;
  auto In = randomVec(N * N, 41);
  std::vector<float> Out(N * N, -1.0f);
  kern::ArgsView Args(std::vector<kern::ArgValue>{
      bufArg(In), bufArg(Out), kern::ArgValue::scalarInt(N)});
  runKernel(kern::Registry::builtin().get("jacobi2d_kernel"),
            kern::NDRange::of2D(N, N, 32, 8), Args);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J) {
      float Want;
      if (I == 0 || J == 0 || I == N - 1 || J == N - 1)
        Want = In[I * N + J];
      else
        Want = 0.25f * (In[(I - 1) * N + J] + In[(I + 1) * N + J] +
                        In[I * N + J - 1] + In[I * N + J + 1]);
      EXPECT_FLOAT_EQ(Out[I * N + J], Want) << I << "," << J;
    }
}

TEST(ExtensionBehaviourTest, JacobiChainBitExactUnderFluidicl) {
  // Ten chained stencil steps: FluidiCL must match the CPU-only device
  // exactly across the whole ping-pong chain.
  const int64_t N = 128;
  const int Iters = 10;
  auto Solve = [&](runtime::HeteroRuntime &RT) {
    uint64_t Bytes = static_cast<uint64_t>(N * N) * 4;
    auto Init = randomVec(static_cast<size_t>(N * N), 42);
    runtime::BufferId A = RT.createBuffer(Bytes, "a");
    runtime::BufferId B = RT.createBuffer(Bytes, "b");
    RT.writeBuffer(A, Init.data(), Bytes);
    RT.writeBuffer(B, Init.data(), Bytes);
    kern::NDRange Range = kern::NDRange::of2D(N, N, 32, 8);
    runtime::BufferId InB = A, OutB = B;
    for (int I = 0; I < Iters; ++I) {
      RT.launchKernel("jacobi2d_kernel", Range,
                      {runtime::KArg::buffer(InB),
                       runtime::KArg::buffer(OutB), runtime::KArg::i64(N)});
      std::swap(InB, OutB);
    }
    std::vector<float> Result(static_cast<size_t>(N * N));
    RT.readBuffer(InB, Result.data(), Bytes);
    RT.finish();
    return Result;
  };
  std::vector<float> Want, Got;
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
    runtime::SingleDeviceRuntime RT(Ctx, mcl::DeviceKind::Cpu);
    Want = Solve(RT);
  }
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
    fluidicl::Runtime RT(Ctx);
    Got = Solve(RT);
  }
  EXPECT_EQ(Got, Want);
}

TEST(ExtensionBehaviourTest, PhiMachineTransfersPricedAsPcie) {
  hw::Machine M = hw::machineWithPhi();
  ASSERT_TRUE(M.Cpu.BehindPcie);
  mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
  auto Queue = Ctx.createQueue(Ctx.cpu());
  auto Buf = Ctx.createBuffer(Ctx.cpu(), 1 << 20);
  TimePoint T0 = Ctx.now();
  Queue->enqueueWrite(*Buf, nullptr, 1 << 20);
  Queue->finish();
  EXPECT_EQ((Ctx.now() - T0).nanos(),
            M.Pcie.transferTime(1 << 20).nanos());
}

TEST(ExtensionBehaviourTest, FluidiclFunctionalOnPhiMachine) {
  mcl::Context Ctx(hw::machineWithPhi(), mcl::ExecMode::Functional);
  fluidicl::Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, testSuite()[4], true);
  EXPECT_TRUE(Res.Valid);
}

} // namespace

//===- tests/fluidicl_runtime_test.cpp - FluidiCL behaviour tests ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Behaviour-level tests of the cooperative runtime: work-distribution
/// invariants, the section 5.3 version gate across multi-kernel chains,
/// section 6.2 location-tracked reads, CPU-computes-everything races,
/// adaptation to external device load (the paper's "adapts to system load"
/// claim), and the paper's buffer-management ablations.
///
//===----------------------------------------------------------------------===//

#include "fluidicl/Runtime.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

using namespace fcl;
using namespace fcl::fluidicl;
using namespace fcl::work;

namespace {

KernelStats statsFor(const Runtime &RT, const std::string &Kernel) {
  for (const KernelStats &S : RT.kernelStats())
    if (S.KernelName == Kernel)
      return S;
  ADD_FAILURE() << "no stats for " << Kernel;
  return KernelStats();
}

TEST(FluidiclBehaviourTest, EveryWorkGroupExecutedAtLeastOnce) {
  for (const Workload &W : paperSuite()) {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    runWorkload(RT, W, false);
    for (const KernelStats &S : RT.kernelStats()) {
      EXPECT_GE(S.CpuGroupsExecuted + S.GpuGroupsExecuted, S.TotalGroups)
          << W.Name << " kernel " << S.KernelName;
      EXPECT_LE(S.GpuGroupsExecuted, S.TotalGroups);
    }
  }
}

TEST(FluidiclBehaviourTest, CooperativeKernelsUseBothDevices) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  runWorkload(RT, makeSyrk(1024, 1024), false);
  KernelStats S = statsFor(RT, "syrk_kernel");
  // Comparable device speeds: both sides contribute substantially.
  EXPECT_GT(S.CpuGroupsExecuted, S.TotalGroups / 5);
  EXPECT_GT(S.GpuGroupsExecuted, S.TotalGroups / 5);
  EXPECT_GT(S.CpuSubkernels, 1u);
}

TEST(FluidiclBehaviourTest, GpuDominatedKernelStillFlowsToGpu) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  runWorkload(RT, makeAtax(8192, 8192), false);
  KernelStats K2 = statsFor(RT, "atax_kernel2");
  // Column-walk kernel: the GPU does the overwhelming share.
  EXPECT_GT(K2.GpuGroupsExecuted, K2.TotalGroups * 3 / 4);
}

TEST(FluidiclBehaviourTest, CpuRunsEverythingWhenGpuIsVerySlow) {
  hw::Machine M = hw::paperMachine();
  M.GpuLoadFactor = 200.0; // Crippled GPU (e.g. busy with graphics).
  mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  runWorkload(RT, makeGesummv(1024), false);
  KernelStats S = statsFor(RT, "gesummv_kernel");
  EXPECT_TRUE(S.CpuRanEverything);
  EXPECT_EQ(S.CpuGroupsExecuted, S.TotalGroups);
}

TEST(FluidiclBehaviourTest, AdaptsToCpuLoad) {
  // The work distribution shifts toward the GPU when the CPU is loaded -
  // the dynamic adaptation the paper claims over static schemes.
  Workload W = makeSyrk(1024, 1024);
  uint64_t CpuShareUnloaded, CpuShareLoaded;
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    runWorkload(RT, W, false);
    CpuShareUnloaded = statsFor(RT, "syrk_kernel").CpuGroupsExecuted;
  }
  {
    hw::Machine M = hw::paperMachine();
    M.CpuLoadFactor = 4.0;
    mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    runWorkload(RT, W, false);
    CpuShareLoaded = statsFor(RT, "syrk_kernel").CpuGroupsExecuted;
  }
  // A 4x-loaded CPU should lose a large part of its share.
  EXPECT_LT(CpuShareLoaded, CpuShareUnloaded * 7 / 10);
}

TEST(FluidiclBehaviourTest, AdaptsToGpuLoad) {
  Workload W = makeSyrk(1024, 1024);
  uint64_t GpuShareUnloaded, GpuShareLoaded;
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    runWorkload(RT, W, false);
    GpuShareUnloaded = statsFor(RT, "syrk_kernel").GpuGroupsExecuted;
  }
  {
    hw::Machine M = hw::paperMachine();
    M.GpuLoadFactor = 4.0;
    mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    runWorkload(RT, W, false);
    GpuShareLoaded = statsFor(RT, "syrk_kernel").GpuGroupsExecuted;
  }
  EXPECT_LT(GpuShareLoaded, GpuShareUnloaded);
}

TEST(FluidiclBehaviourTest, LoadedCpuStillProducesCorrectResults) {
  hw::Machine M = hw::paperMachine();
  M.CpuLoadFactor = 7.0;
  mcl::Context Ctx(M, mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, testSuite()[4], true);
  EXPECT_TRUE(Res.Valid);
}

TEST(FluidiclBehaviourTest, LoadedGpuStillProducesCorrectResults) {
  hw::Machine M = hw::paperMachine();
  M.GpuLoadFactor = 50.0;
  mcl::Context Ctx(M, mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, testSuite()[3], true);
  EXPECT_TRUE(Res.Valid);
}

TEST(FluidiclBehaviourTest, UseCpuFalseDegeneratesToGpuOnly) {
  Options Opts;
  Opts.UseCpu = false;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx, Opts);
  RunResult Res = runWorkload(RT, testSuite()[0], true);
  EXPECT_TRUE(Res.Valid);
  for (const KernelStats &S : RT.kernelStats()) {
    EXPECT_EQ(S.CpuGroupsExecuted, 0u);
    EXPECT_EQ(S.GpuGroupsExecuted, S.TotalGroups);
  }
}

TEST(FluidiclBehaviourTest, ChunkSizeRampRecorded) {
  Options Opts;
  Opts.InitialChunkPct = 2.0;
  Opts.StepPct = 2.0;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx, Opts);
  runWorkload(RT, makeSyrk(1024, 1024), false);
  KernelStats S = statsFor(RT, "syrk_kernel");
  EXPECT_GE(S.FinalChunkPct, 2.0);
}

TEST(FluidiclBehaviourTest, StepZeroKeepsInitialChunk) {
  Options Opts;
  Opts.InitialChunkPct = 2.0;
  Opts.StepPct = 0.0;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx, Opts);
  runWorkload(RT, makeSyrk(1024, 1024), false);
  EXPECT_DOUBLE_EQ(statsFor(RT, "syrk_kernel").FinalChunkPct, 2.0);
}

TEST(FluidiclBehaviourTest, LocationTrackingAvoidsPcieOnCpuResults) {
  // GESUMMV on a crippled GPU: the CPU computes everything; with location
  // tracking the result read must not touch PCIe (paper section 6.2).
  hw::Machine M = hw::paperMachine();
  M.GpuLoadFactor = 200.0;
  Workload W = makeGesummv(2048);

  auto TotalWith = [&](bool Tracking) {
    Options Opts;
    Opts.DataLocationTracking = Tracking;
    mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx, Opts);
    return runWorkload(RT, W, false).Total;
  };
  Duration With = TotalWith(true);
  Duration Without = TotalWith(false);
  // Without tracking, the read crosses PCIe behind the crawling GPU queue.
  EXPECT_LT(With.nanos(), Without.nanos());
}

TEST(FluidiclBehaviourTest, BufferPoolReducesTotalTimeOnMultiKernelApp) {
  Workload W = makeCorr(512, 512);
  auto TotalWith = [&](bool Pool) {
    Options Opts;
    Opts.BufferPool = Pool;
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx, Opts);
    return runWorkload(RT, W, false).Total;
  };
  EXPECT_LE(TotalWith(true).nanos(), TotalWith(false).nanos());
}

TEST(FluidiclBehaviourTest, MultiKernelChainKeepsVersionsCoherent) {
  // BICG's second kernel consumes nothing from the first, but ATAX's does
  // (tmp). Run ATAX functionally several times through one runtime to
  // exercise version reuse across launches.
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  for (int Round = 0; Round < 3; ++Round) {
    RunResult Res = runWorkload(RT, testSuite()[0], true);
    EXPECT_TRUE(Res.Valid) << "round " << Round;
  }
  // Kernel IDs must keep increasing across rounds.
  auto Stats = RT.kernelStats();
  ASSERT_EQ(Stats.size(), 6u);
  for (size_t I = 1; I < Stats.size(); ++I)
    EXPECT_GT(Stats[I].KernelId, Stats[I - 1].KernelId);
}

TEST(FluidiclBehaviourTest, KernelTimesRecordedPositive) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  runWorkload(RT, makeBicg(1024, 1024), false);
  for (const KernelStats &S : RT.kernelStats()) {
    EXPECT_GT(S.KernelTime.nanos(), 0);
    EXPECT_FALSE(S.KernelName.empty());
    EXPECT_FALSE(S.CpuKernelUsed.empty());
  }
}

TEST(FluidiclBehaviourTest, OnlineProfilingPicksCpuVariantForCorr) {
  Options Opts;
  Opts.OnlineProfiling = true;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx, Opts);
  runWorkload(RT, makeCorr(2048, 2048), false);
  EXPECT_EQ(statsFor(RT, "corr_corr_kernel").CpuKernelUsed,
            "corr_corr_kernel_cpuopt");
}

TEST(FluidiclBehaviourTest, ProfilingDecisionPersistsAcrossLaunches) {
  Options Opts;
  Opts.OnlineProfiling = true;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx, Opts);
  runWorkload(RT, makeCorr(1024, 1024), false);
  runWorkload(RT, makeCorr(1024, 1024), false);
  // Second run starts with the decision already made.
  auto Stats = RT.kernelStats();
  EXPECT_EQ(Stats.back().CpuKernelUsed, "corr_corr_kernel_cpuopt");
}

TEST(FluidiclBehaviourTest, SmallNdrangeSingleGroupWorks) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  const int64_t N = 32; // One work-group.
  runtime::BufferId A = RT.createBuffer(N * 4, "a");
  runtime::BufferId B = RT.createBuffer(N * 4, "b");
  runtime::BufferId C = RT.createBuffer(N * 4, "c");
  std::vector<float> HA(N, 1.0f), HB(N, 2.0f), HC(N, 0.0f);
  RT.writeBuffer(A, HA.data(), N * 4);
  RT.writeBuffer(B, HB.data(), N * 4);
  RT.launchKernel("vec_add", kern::NDRange::of1D(N, 32),
                  {runtime::KArg::buffer(A), runtime::KArg::buffer(B),
                   runtime::KArg::buffer(C), runtime::KArg::i64(N)});
  RT.readBuffer(C, HC.data(), N * 4);
  RT.finish();
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(HC[I], 3.0f);
}

TEST(FluidiclBehaviourTest, RepeatedWriteLaunchReadCycles) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  const int64_t N = 256;
  runtime::BufferId X = RT.createBuffer(N * 4, "x");
  runtime::BufferId Y = RT.createBuffer(N * 4, "y");
  std::vector<float> HX(N, 1.0f), HY(N, 0.0f);
  RT.writeBuffer(X, HX.data(), N * 4);
  RT.writeBuffer(Y, HY.data(), N * 4);
  // y += 2x, five times; y should be 10 everywhere.
  for (int Round = 0; Round < 5; ++Round)
    RT.launchKernel("saxpy", kern::NDRange::of1D(N, 32),
                    {runtime::KArg::buffer(X), runtime::KArg::buffer(Y),
                     runtime::KArg::f64(2.0), runtime::KArg::i64(N)});
  RT.readBuffer(Y, HY.data(), N * 4);
  RT.finish();
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(HY[I], 10.0f);
}

TEST(FluidiclBehaviourTest, BarrierKernelRunsCooperatively) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  const int64_t N = 1024;
  const uint64_t Local = 64;
  runtime::BufferId X = RT.createBuffer(N * 4, "x");
  runtime::BufferId P = RT.createBuffer(N / Local * 4, "partial");
  std::vector<float> HX(N);
  for (int64_t I = 0; I < N; ++I)
    HX[static_cast<size_t>(I)] = static_cast<float>(I % 7);
  RT.writeBuffer(X, HX.data(), N * 4);
  RT.launchKernel("block_sum", kern::NDRange::of1D(N, Local),
                  {runtime::KArg::buffer(X), runtime::KArg::buffer(P),
                   runtime::KArg::i64(N)});
  std::vector<float> HP(N / Local, -1.0f);
  RT.readBuffer(P, HP.data(), HP.size() * 4);
  RT.finish();
  for (size_t G = 0; G < HP.size(); ++G) {
    float Want = 0;
    for (uint64_t I = 0; I < Local; ++I)
      Want += HX[G * Local + I];
    EXPECT_FLOAT_EQ(HP[G], Want);
  }
}

// --- Async API ------------------------------------------------------------

// Replays a workload through launchKernelAsync/readBufferAsync, chaining
// each step from the previous completion, and returns the total time from
// first buffer creation to last result read - the same interval
// runWorkload measures for the blocking API.
Duration runAsync(Runtime &RT, const Workload &W,
                  std::vector<std::vector<std::byte>> *Host,
                  std::vector<std::vector<std::byte>> *Results) {
  mcl::Context &Ctx = RT.context();
  TimePoint Start = Ctx.now();
  std::vector<runtime::BufferId> Ids;
  for (const BufferSpec &B : W.Buffers)
    Ids.push_back(RT.createBuffer(B.Bytes, B.Name));
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    RT.writeBuffer(Ids[I], Host ? (*Host)[I].data() : nullptr,
                   W.Buffers[I].Bytes);
  if (Results)
    for (size_t RIdx : W.ResultBuffers)
      Results->emplace_back(W.Buffers[RIdx].Bytes);

  size_t NextCall = 0, NextRead = 0;
  bool Done = false;
  std::function<void()> Step = [&] {
    if (NextCall < W.Calls.size()) {
      const KernelCall &Call = W.Calls[NextCall++];
      std::vector<runtime::KArg> Args = Call.Args;
      for (runtime::KArg &A : Args)
        if (A.IsBuffer)
          A.Buf = Ids[A.Buf];
      RT.launchKernelAsync(Call.Kernel, Call.Range, Args, Step);
      return;
    }
    if (NextRead < W.ResultBuffers.size()) {
      size_t R = NextRead++;
      size_t RIdx = W.ResultBuffers[R];
      RT.readBufferAsync(Ids[RIdx],
                         Results ? (*Results)[R].data() : nullptr,
                         W.Buffers[RIdx].Bytes, Step);
      return;
    }
    Done = true;
  };
  Step();
  Ctx.simulator().runWhileNot([&] { return Done; });
  Duration Total = Ctx.now() - Start;
  RT.finish();
  return Total;
}

TEST(FluidiclAsyncTest, AsyncPathMatchesBlockingTimingsAndStats) {
  Workload W = makeBicg(2048, 2048); // Two-kernel chain with a version gate.
  Duration BlockingTotal;
  std::vector<KernelStats> BlockingStats;
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    RunResult Res = runWorkload(RT, W, false);
    BlockingTotal = Res.Total;
    BlockingStats = RT.kernelStats();
  }
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  Duration AsyncTotal = runAsync(RT, W, nullptr, nullptr);
  EXPECT_EQ(AsyncTotal.nanos(), BlockingTotal.nanos());
  std::vector<KernelStats> AsyncStats = RT.kernelStats();
  ASSERT_EQ(AsyncStats.size(), BlockingStats.size());
  for (size_t I = 0; I < AsyncStats.size(); ++I) {
    EXPECT_EQ(AsyncStats[I].KernelName, BlockingStats[I].KernelName);
    EXPECT_EQ(AsyncStats[I].TotalGroups, BlockingStats[I].TotalGroups);
    EXPECT_EQ(AsyncStats[I].CpuGroupsExecuted,
              BlockingStats[I].CpuGroupsExecuted);
    EXPECT_EQ(AsyncStats[I].GpuGroupsExecuted,
              BlockingStats[I].GpuGroupsExecuted);
    EXPECT_EQ(AsyncStats[I].CpuSubkernels, BlockingStats[I].CpuSubkernels);
  }
}

TEST(FluidiclAsyncTest, AsyncFunctionalResultsMatchReference) {
  Workload W = makeGesummv(512);
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  Runtime RT(Ctx);
  std::vector<std::vector<std::byte>> Host = initHostData(W);
  std::vector<std::vector<std::byte>> Results;
  runAsync(RT, W, &Host, &Results);
  computeReference(W, Host);
  ASSERT_EQ(Results.size(), W.ResultBuffers.size());
  for (size_t R = 0; R < Results.size(); ++R) {
    const auto *Got = reinterpret_cast<const float *>(Results[R].data());
    const auto *Want =
        reinterpret_cast<const float *>(Host[W.ResultBuffers[R]].data());
    for (uint64_t J = 0; J < Results[R].size() / sizeof(float); ++J)
      EXPECT_NEAR(Got[J], Want[J], 1e-5 + 1e-5 * std::fabs(Want[J]))
          << "result " << R << " element " << J;
  }
}

TEST(FluidiclAsyncTest, PassThroughChunkYieldChangesNothing) {
  // A chunk-yield hook that resumes immediately must reproduce the
  // unhooked run exactly - the hook sits on the subkernel launch path and
  // an immediate Resume() is a no-op by construction.
  Workload W = makeSyrk(1024, 1024);
  Duration PlainTotal;
  uint64_t PlainCpuGroups;
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    Runtime RT(Ctx);
    PlainTotal = runAsync(RT, W, nullptr, nullptr);
    PlainCpuGroups = statsFor(RT, "syrk_kernel").CpuGroupsExecuted;
  }
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Runtime RT(Ctx);
  uint64_t Yields = 0;
  RT.setChunkYield([&Yields](std::function<void()> Resume) {
    ++Yields;
    Resume();
  });
  Duration HookedTotal = runAsync(RT, W, nullptr, nullptr);
  EXPECT_EQ(HookedTotal.nanos(), PlainTotal.nanos());
  EXPECT_EQ(statsFor(RT, "syrk_kernel").CpuGroupsExecuted, PlainCpuGroups);
  EXPECT_GT(Yields, 0u);
}

// Built from top-level code, a runtime charges its set-up at once. Built
// inside an event, it charges nothing and schedules nothing: its caller
// charges setupTime() as its own first host step.
TEST(FluidiclBehaviourTest, SetUpChargedAtOnceOnlyOutsideAnEvent) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  sim::Simulator &Sim = Ctx.simulator();
  Runtime Top(Ctx);
  EXPECT_GT(Top.setupTime().nanos(), 0);
  EXPECT_EQ(Sim.now(), TimePoint() + Top.setupTime());
  std::unique_ptr<Runtime> Inner;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    Inner = std::make_unique<Runtime>(Ctx);
    EXPECT_FALSE(Sim.hasPending());
  });
  uint64_t Before = Sim.eventsExecuted();
  Sim.run();
  EXPECT_EQ(Sim.eventsExecuted(), Before + 1);
  EXPECT_EQ(Sim.now(),
            TimePoint() + Top.setupTime() + Duration::nanoseconds(10));
  EXPECT_TRUE(Inner->quiescent());
}

} // namespace

//===- tests/mcl_engine_timing_test.cpp - Device-engine timing tests -------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Detailed timing-behaviour tests of the simulated device engines: the
/// GPU wave scheduler (wave widths, in-loop checkpoint early termination,
/// analytic-vs-event agreement), the CPU engine's round structure, launch
/// restriction costs, and the moot-subkernel functional suppression hook.
///
//===----------------------------------------------------------------------===//

#include "kern/Registry.h"
#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "mcl/CpuEngine.h"
#include "mcl/GpuEngine.h"

#include <gtest/gtest.h>

using namespace fcl;
using namespace fcl::mcl;

namespace {

/// A compute-bound 2-D launch with Trip-long loops (SYRK-shaped).
LaunchDesc syrkDesc(Context &Ctx, Buffer &A, Buffer &C, int64_t N) {
  LaunchDesc Desc;
  Desc.Kernel = &kern::Registry::builtin().get("syrk_kernel");
  Desc.Range = kern::NDRange::of2D(static_cast<uint64_t>(N),
                                   static_cast<uint64_t>(N), 32, 8);
  Desc.Args = {LaunchArg::buffer(&A),  LaunchArg::buffer(&C),
               LaunchArg::scalarFp(1), LaunchArg::scalarFp(1),
               LaunchArg::scalarInt(N), LaunchArg::scalarInt(N)};
  (void)Ctx;
  return Desc;
}

TEST(GpuWaveTest, DurationProportionalToGroupsForFullWaves) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Gpu = static_cast<GpuEngine &>(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024); // 4096 groups.

  Desc.FlatEnd = 112; // Exactly one wave (14 SMs x 8 resident).
  double OneWave = Gpu.launchDuration(Desc).toSeconds();
  Desc.FlatEnd = 224; // Two waves.
  double TwoWaves = Gpu.launchDuration(Desc).toSeconds();
  double Overhead = Ctx.machine().Gpu.KernelLaunchOverhead.toSeconds();
  EXPECT_NEAR(TwoWaves - Overhead, 2 * (OneWave - Overhead),
              (OneWave - Overhead) * 0.01);
}

TEST(GpuWaveTest, PartialWaveCostsProportionallyLess) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Gpu = static_cast<GpuEngine &>(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024);
  Desc.FlatEnd = 56; // Half a wave.
  double Half = Gpu.launchDuration(Desc).toSeconds();
  Desc.FlatEnd = 112;
  double Full = Gpu.launchDuration(Desc).toSeconds();
  double Overhead = Ctx.machine().Gpu.KernelLaunchOverhead.toSeconds();
  EXPECT_NEAR(Half - Overhead, (Full - Overhead) / 2,
              (Full - Overhead) * 0.01);
}

TEST(GpuWaveTest, EventExecutionMatchesAnalyticDuration) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Gpu = static_cast<GpuEngine &>(Ctx.gpu());
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 512 * 512 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 512 * 512 * 4);
  for (hw::AbortPolicyKind Kind :
       {hw::AbortPolicyKind::None, hw::AbortPolicyKind::AtStart,
        hw::AbortPolicyKind::InLoop}) {
    LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 512);
    Desc.Abort.Kind = Kind;
    if (Kind != hw::AbortPolicyKind::None)
      Desc.Status = std::make_shared<StatusWord>(~uint64_t(0)); // Never aborts.
    Duration Analytic = Gpu.launchDuration(Desc);
    TimePoint T0 = Ctx.now();
    Queue->enqueueKernel(Desc)->wait();
    Duration Actual = Ctx.now() - T0;
    // Checkpointed waves accumulate nanosecond rounding; allow 0.1%.
    EXPECT_NEAR(static_cast<double>(Actual.nanos()),
                static_cast<double>(Analytic.nanos()),
                static_cast<double>(Analytic.nanos()) * 0.001 + 64);
  }
}

TEST(GpuWaveTest, InLoopAbortTerminatesFasterThanAtStart) {
  // Boundary drops below the in-flight wave right after the kernel starts:
  // with in-loop checks the wave dies at the next checkpoint; with
  // at-start checks it runs to completion.
  auto RunWith = [](hw::AbortPolicyKind Kind) {
    Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
    auto Queue = Ctx.createQueue(Ctx.gpu());
    auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
    auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
    LaunchDesc Desc;
    Desc.Kernel = &kern::Registry::builtin().get("syrk_kernel");
    Desc.Range = kern::NDRange::of2D(1024, 1024, 32, 8);
    Desc.Args = {LaunchArg::buffer(A.get()),  LaunchArg::buffer(C.get()),
                 LaunchArg::scalarFp(1),      LaunchArg::scalarFp(1),
                 LaunchArg::scalarInt(1024),  LaunchArg::scalarInt(1024)};
    Desc.Abort.Kind = Kind;
    auto Boundary = std::make_shared<StatusWord>(~uint64_t(0));
    Desc.Status = Boundary;
    // Drop the boundary to zero shortly after launch overhead.
    Ctx.simulator().scheduleAfter(
        Ctx.machine().Gpu.KernelLaunchOverhead + Duration::microseconds(20),
        [Boundary] { Boundary->lower(0); });
    TimePoint T0 = Ctx.now();
    Queue->enqueueKernel(Desc)->wait();
    return (Ctx.now() - T0).toSeconds();
  };
  double AtStart = RunWith(hw::AbortPolicyKind::AtStart);
  double InLoop = RunWith(hw::AbortPolicyKind::InLoop);
  EXPECT_LT(InLoop, AtStart);
}

/// The per-work-item cost the GPU engine charges for \p Desc.
hw::WorkItemCost costOf(const LaunchDesc &Desc) {
  kern::CostQuery Query;
  Query.Range = Desc.Range;
  for (const LaunchArg &A : Desc.Args) {
    kern::ArgValue V;
    V.IntValue = A.IntValue;
    V.FpValue = A.FpValue;
    Query.Scalars.push_back(V);
  }
  return Desc.Kernel->Cost(Query);
}

TEST(GpuWaveTest, UncutInLoopWaveIsOneEvent) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024);
  Desc.FlatEnd = 224; // Two waves.
  Desc.Abort.Kind = hw::AbortPolicyKind::InLoop;
  Desc.Status = std::make_shared<StatusWord>(~uint64_t(0));
  ASSERT_EQ(hw::gpuWaveCheckpoints(costOf(Desc), Desc.Abort), 32);
  uint64_t Before = Ctx.simulator().eventsExecuted();
  EventPtr Done = Queue->enqueueKernel(Desc);
  Done->wait();
  EXPECT_EQ(Done->payload(), 224u);
  // The launch overhead, then one event per wave instead of 32.
  EXPECT_EQ(Ctx.simulator().eventsExecuted() - Before, 3u);
}

TEST(GpuWaveTest, LoweringIsSeenAtTheFirstCheckpointAtOrAfterIt) {
  // One 112-group wave with 32 checkpoints; the word drops to 56 (half the
  // wave) either strictly inside segment K or exactly at checkpoint K's
  // nanosecond. Both are seen at checkpoint K: 56 groups abort there and
  // the survivors' remaining segments are re-timed for 56 groups.
  const int K = 10;
  for (bool Exact : {false, true}) {
    Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
    const hw::Machine &M = Ctx.machine();
    auto Queue = Ctx.createQueue(Ctx.gpu());
    auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
    auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
    LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024);
    Desc.FlatEnd = 112;
    Desc.Abort.Kind = hw::AbortPolicyKind::InLoop;
    auto Word = std::make_shared<StatusWord>(~uint64_t(0));
    Desc.Status = Word;
    auto Counters = std::make_shared<LaunchCounters>();
    Desc.Counters = Counters;

    hw::WorkItemCost Cost = costOf(Desc);
    const int N = hw::gpuWaveCheckpoints(Cost, Desc.Abort);
    ASSERT_EQ(N, 32);
    uint64_t Items = Desc.Range.itemsPerGroup();
    int64_t Seg = hw::gpuWaveTime(M, Cost, Desc.Abort, 112 * Items).nanos() / N;
    int64_t SegHalf =
        hw::gpuWaveTime(M, Cost, Desc.Abort, 56 * Items).nanos() / N;
    ASSERT_GT(Seg, 2);
    TimePoint WaveStart = Ctx.now() + M.Gpu.KernelLaunchOverhead;
    TimePoint CheckK = WaveStart + Duration::nanoseconds(K * Seg);
    TimePoint LowerAt =
        WaveStart + Duration::nanoseconds(Exact ? K * Seg : K * Seg - Seg / 2);
    Ctx.simulator().scheduleAt(LowerAt, [Word] { Word->lower(56); });

    EventPtr Done = Queue->enqueueKernel(Desc);
    Done->wait();
    EXPECT_EQ(Done->payload(), 56u) << "exact=" << Exact;
    EXPECT_EQ(Counters->GroupsWasted, 56u) << "exact=" << Exact;
    TimePoint Want = CheckK + Duration::nanoseconds((N - K) * SegHalf);
    EXPECT_EQ(Done->completeTime().nanos(), Want.nanos())
        << "exact=" << Exact;
  }
}

TEST(GpuWaveTest, LoweringsThatCutNoLiveWaveScheduleNothing) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  const hw::Machine &M = Ctx.machine();
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024);
  Desc.FlatEnd = 336; // Three waves.
  Desc.Abort.Kind = hw::AbortPolicyKind::InLoop;
  auto Word = std::make_shared<StatusWord>(~uint64_t(0));
  Desc.Status = Word;
  sim::Simulator &Sim = Ctx.simulator();
  uint64_t Before = Sim.eventsExecuted();
  // During the launch overhead no wave is in flight: beginWave reads the
  // word. Mid-way through the first wave [0, 112), a drop to 150 leaves
  // every live group alive: the second wave reads it and runs [112, 150).
  Sim.scheduleAfter(
      Duration::nanoseconds(M.Gpu.KernelLaunchOverhead.nanos() / 2),
      [Word] { Word->lower(300); });
  Sim.scheduleAfter(M.Gpu.KernelLaunchOverhead + Duration::microseconds(5),
                    [Word] { Word->lower(150); });
  EventPtr Done = Queue->enqueueKernel(Desc);
  Done->wait();
  EXPECT_EQ(Done->payload(), 150u);
  // Two lowerings, the launch overhead and one event per wave: neither
  // lowering scheduled a checkpoint event.
  EXPECT_EQ(Sim.eventsExecuted() - Before, 5u);
  // After the launch the word has no watcher: lowering it is one event.
  Before = Sim.eventsExecuted();
  Sim.scheduleAfter(Duration::microseconds(1), [Word] { Word->lower(0); });
  Sim.run();
  EXPECT_EQ(Sim.eventsExecuted() - Before, 1u);
}

TEST(CpuEngineTest, RoundStructureQuantizesDuration) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Cpu = static_cast<CpuEngine &>(Ctx.cpu());
  auto A = Ctx.createBuffer(Ctx.cpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.cpu(), 1024 * 1024 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 1024);
  // 8 compute units: 1..8 groups take one round, 9 groups take two.
  Desc.FlatEnd = 1;
  double One = Cpu.launchDuration(Desc).toSeconds();
  Desc.FlatEnd = 8;
  double Eight = Cpu.launchDuration(Desc).toSeconds();
  Desc.FlatEnd = 9;
  double Nine = Cpu.launchDuration(Desc).toSeconds();
  EXPECT_DOUBLE_EQ(One, Eight);
  EXPECT_GT(Nine, Eight * 1.5);
}

TEST(CpuEngineTest, SkipFunctionalSuppressesWritesOnly) {
  Context Ctx(hw::paperMachine(), ExecMode::Functional);
  auto Queue = Ctx.createQueue(Ctx.cpu());
  const int64_t N = 64;
  auto X = Ctx.createBuffer(Ctx.cpu(), N * 4);
  auto Y = Ctx.createBuffer(Ctx.cpu(), N * 4);
  std::vector<float> HX(N, 1.0f), HY(N, 0.0f);
  Queue->enqueueWrite(*X, HX.data(), N * 4);
  Queue->enqueueWrite(*Y, HY.data(), N * 4);

  LaunchDesc Desc;
  Desc.Kernel = &kern::Registry::builtin().get("saxpy");
  Desc.Range = kern::NDRange::of1D(N, 32);
  Desc.Args = {LaunchArg::buffer(X.get()), LaunchArg::buffer(Y.get()),
               LaunchArg::scalarFp(5.0), LaunchArg::scalarInt(N)};
  Desc.SkipFunctional = [] { return true; };

  Queue->finish(); // Drain the uploads so both launches start clean.
  Duration Skipped, Executed;
  {
    TimePoint T0 = Ctx.now();
    Queue->enqueueKernel(Desc)->wait();
    Skipped = Ctx.now() - T0;
  }
  // Y unchanged despite the launch consuming simulated time.
  std::vector<float> Out(N, -1.0f);
  Queue->enqueueRead(*Y, Out.data(), N * 4, 0, /*Blocking=*/true);
  for (float V : Out)
    EXPECT_FLOAT_EQ(V, 0.0f);

  Desc.SkipFunctional = nullptr;
  {
    TimePoint T0 = Ctx.now();
    Queue->enqueueKernel(Desc)->wait();
    Executed = Ctx.now() - T0;
  }
  Queue->enqueueRead(*Y, Out.data(), N * 4, 0, /*Blocking=*/true);
  for (float V : Out)
    EXPECT_FLOAT_EQ(V, 5.0f);
  // Timing is identical either way: suppression is purely functional.
  EXPECT_EQ(Skipped.nanos(), Executed.nanos());
}

TEST(CpuEngineTest, EmptyRangeCostsOnlyLaunchOverhead) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Cpu = static_cast<CpuEngine &>(Ctx.cpu());
  auto A = Ctx.createBuffer(Ctx.cpu(), 64 * 64 * 4);
  auto C = Ctx.createBuffer(Ctx.cpu(), 64 * 64 * 4);
  LaunchDesc Desc = syrkDesc(Ctx, *A, *C, 64);
  Desc.FlatBegin = 2;
  Desc.FlatEnd = 2;
  EXPECT_EQ(Cpu.launchDuration(Desc).nanos(),
            Ctx.machine().Cpu.KernelLaunchOverhead.nanos());
}

} // namespace

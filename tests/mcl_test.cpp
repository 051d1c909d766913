//===- tests/mcl_test.cpp - MiniCL substrate tests -------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the OpenCL-style host API substrate: buffers, in-order command
/// queues, events, transfers (with PCIe/full-duplex timing), functional
/// kernel launches on both simulated devices, flat-range restricted
/// launches, CPU work-group splitting, and GPU abort-boundary behaviour.
///
//===----------------------------------------------------------------------===//

#include "kern/Registry.h"
#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "mcl/CpuEngine.h"
#include "mcl/GpuEngine.h"
#include "mcl/Platform.h"

#include <gtest/gtest.h>

#include <vector>

using namespace fcl;
using namespace fcl::mcl;

namespace {

LaunchDesc vecAddDesc(Buffer &A, Buffer &B, Buffer &C, int64_t N) {
  LaunchDesc Desc;
  Desc.Kernel = &kern::Registry::builtin().get("vec_add");
  Desc.Range = kern::NDRange::of1D(static_cast<uint64_t>(N), 32);
  Desc.Args = {LaunchArg::buffer(&A), LaunchArg::buffer(&B),
               LaunchArg::buffer(&C), LaunchArg::scalarInt(N)};
  return Desc;
}

TEST(PlatformTest, TwoVendorPlatforms) {
  Context Ctx;
  auto Platforms = discoverPlatforms(Ctx);
  ASSERT_EQ(Platforms.size(), 2u);
  EXPECT_EQ(Platforms[0].Dev->kind(), DeviceKind::Gpu);
  EXPECT_EQ(Platforms[1].Dev->kind(), DeviceKind::Cpu);
  EXPECT_NE(Platforms[0].VendorName, Platforms[1].VendorName);
}

TEST(ContextTest, DevicesExposed) {
  Context Ctx;
  EXPECT_EQ(Ctx.cpu().kind(), DeviceKind::Cpu);
  EXPECT_EQ(Ctx.gpu().kind(), DeviceKind::Gpu);
  EXPECT_EQ(Ctx.cpu().computeUnits(), Ctx.machine().Cpu.ComputeUnits);
  EXPECT_EQ(Ctx.gpu().computeUnits(), Ctx.machine().Gpu.NumSms);
}

// Context::createBuffer charges nothing: its caller charges the creation
// once, through hostThen, summed with the rest of its API call.
TEST(ContextTest, BufferCreationIsChargedByTheCaller) {
  Context Ctx;
  TimePoint Before = Ctx.now();
  std::unique_ptr<Buffer> Buf;
  Ctx.hostThen(Ctx.machine().Host.bufferCreateTime(1024), [&] {
    Buf = Ctx.createBuffer(Ctx.gpu(), 1024);
    EXPECT_EQ((Ctx.now() - Before).nanos(),
              Ctx.machine().Host.bufferCreateTime(1024).nanos());
  });
  EXPECT_EQ((Ctx.now() - Before).nanos(),
            Ctx.machine().Host.bufferCreateTime(1024).nanos());
  ASSERT_TRUE(Buf);
  EXPECT_TRUE(Buf->backed());
  EXPECT_EQ(Buf->size(), 1024u);
}

TEST(ContextTest, LargeBufferCreationCostsMore) {
  Context Ctx;
  Duration Small = Ctx.machine().Host.bufferCreateTime(1024);
  Duration Large = Ctx.machine().Host.bufferCreateTime(256 << 20);
  EXPECT_GT(Large.nanos(), Small.nanos());
  // The fixed part is shared; the delta is the page-mapping term.
  EXPECT_GE(Large.nanos() - Small.nanos(),
            static_cast<int64_t>((256 << 20) /
                                 Ctx.machine().Host.BufferCreateBandwidth *
                                 1e9) -
                1000);
}

TEST(ContextTest, TimingOnlyBuffersHaveNoStorage) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 1024);
  EXPECT_FALSE(Buf->backed());
  EXPECT_EQ(Buf->data(), nullptr);
}

TEST(QueueTest, WriteReadRoundTrip) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 256);
  std::vector<uint8_t> Src(256);
  for (size_t I = 0; I < Src.size(); ++I)
    Src[I] = static_cast<uint8_t>(I);
  Queue->enqueueWrite(*Buf, Src.data(), Src.size());
  std::vector<uint8_t> Dst(256, 0);
  Queue->enqueueRead(*Buf, Dst.data(), Dst.size(), 0, /*Blocking=*/true);
  EXPECT_EQ(Src, Dst);
}

TEST(QueueTest, OffsetWriteAndRead) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 64);
  uint32_t Value = 0xDEADBEEF;
  Queue->enqueueWrite(*Buf, &Value, sizeof(Value), 16);
  uint32_t Out = 0;
  Queue->enqueueRead(*Buf, &Out, sizeof(Out), 16, /*Blocking=*/true);
  EXPECT_EQ(Out, 0xDEADBEEFu);
}

TEST(QueueTest, WriteCapturesSourceAtEnqueue) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 4);
  uint32_t Value = 1;
  Queue->enqueueWrite(*Buf, &Value, sizeof(Value));
  Value = 2; // Mutate after enqueue; the captured copy must win.
  uint32_t Out = 0;
  Queue->enqueueRead(*Buf, &Out, sizeof(Out), 0, /*Blocking=*/true);
  EXPECT_EQ(Out, 1u);
}

TEST(QueueTest, CommandsExecuteInOrder) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  std::vector<int> Order;
  Queue->enqueueCallback([&] { Order.push_back(1); });
  Queue->enqueueCallback([&] { Order.push_back(2); });
  Queue->enqueueCallback([&] { Order.push_back(3); });
  Queue->finish();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

// Regression test for callback re-entrancy: a callback running on one
// queue enqueues onto another stream's queue (and back onto its own) while
// both queues are mid-pump. The serving layer does exactly this - job
// completion callbacks dispatch the next job onto other queues - so the
// interleaving must neither drop nor reorder work, and enqueues onto a
// busy queue must park in Pending rather than recurse.
TEST(QueueTest, CallbackMayEnqueueOntoOtherQueuesMidPump) {
  Context Ctx;
  auto QGpu = Ctx.createQueue(Ctx.gpu(), "stream-a");
  auto QCpu = Ctx.createQueue(Ctx.cpu(), "stream-b");
  std::vector<std::string> Order;
  QGpu->enqueueCallback([&] {
    Order.push_back("a1");
    // Cross-queue enqueue while this queue is executing.
    QCpu->enqueueCallback([&] {
      Order.push_back("b1");
      // And from that stream back onto the first queue.
      QGpu->enqueueCallback([&] { Order.push_back("a3"); });
    });
    // Same-queue enqueue from inside the running callback must park in
    // Pending and run after this callback completes.
    QGpu->enqueueCallback([&] { Order.push_back("a2"); });
  });
  Ctx.simulator().run();
  EXPECT_TRUE(QGpu->idle());
  EXPECT_TRUE(QCpu->idle());
  EXPECT_EQ(Order,
            (std::vector<std::string>{"a1", "b1", "a2", "a3"}));
}

TEST(QueueTest, GpuWriteTimingMatchesPcieModel) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 1 << 20);
  TimePoint Before = Ctx.now();
  EventPtr Done = Queue->enqueueWrite(*Buf, nullptr, 1 << 20);
  Done->wait();
  Duration Took = Ctx.now() - Before;
  Duration Expect = Ctx.machine().Pcie.transferTime(1 << 20);
  EXPECT_EQ(Took.nanos(), Expect.nanos());
}

TEST(QueueTest, SameDirectionTransfersSerializeAcrossQueues) {
  Context Ctx;
  auto Q1 = Ctx.createQueue(Ctx.gpu());
  auto Q2 = Ctx.createQueue(Ctx.gpu());
  auto B1 = Ctx.createBuffer(Ctx.gpu(), 1 << 20);
  auto B2 = Ctx.createBuffer(Ctx.gpu(), 1 << 20);
  EventPtr E1 = Q1->enqueueWrite(*B1, nullptr, 1 << 20);
  EventPtr E2 = Q2->enqueueWrite(*B2, nullptr, 1 << 20);
  E1->wait();
  E2->wait();
  // The H2D channel is shared: the second write lands roughly one
  // bandwidth-term later than the first.
  Duration Gap = E2->completeTime() - E1->completeTime();
  double BwTerm = (1 << 20) / Ctx.machine().Pcie.Bandwidth * 1e9;
  EXPECT_NEAR(static_cast<double>(Gap.nanos()), BwTerm,
              static_cast<double>(Ctx.machine().Pcie.Latency.nanos()) + 10);
}

TEST(QueueTest, OppositeDirectionsOverlapFullDuplex) {
  Context Ctx;
  auto QW = Ctx.createQueue(Ctx.gpu());
  auto QR = Ctx.createQueue(Ctx.gpu());
  auto B1 = Ctx.createBuffer(Ctx.gpu(), 1 << 20);
  auto B2 = Ctx.createBuffer(Ctx.gpu(), 1 << 20);
  TimePoint Before = Ctx.now();
  EventPtr E1 = QW->enqueueWrite(*B1, nullptr, 1 << 20);
  EventPtr E2 = QR->enqueueRead(*B2, nullptr, 1 << 20);
  E1->wait();
  E2->wait();
  Duration Total = Ctx.now() - Before;
  Duration OneWay = Ctx.machine().Pcie.transferTime(1 << 20);
  // Full duplex: both transfers finish in about one transfer time.
  EXPECT_LT(Total.nanos(), OneWay.nanos() * 3 / 2);
}

TEST(EventTest, OnCompleteAfterCompletionRunsImmediately) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  EventPtr Done = Queue->enqueueCallback([] {});
  Queue->finish();
  ASSERT_TRUE(Done->isComplete());
  bool Ran = false;
  Done->onComplete([&] { Ran = true; });
  EXPECT_TRUE(Ran);
}

TEST(EventTest, CompleteTimeRecorded) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 4096);
  EventPtr Done = Queue->enqueueWrite(*Buf, nullptr, 4096);
  Done->wait();
  EXPECT_EQ(Done->completeTime().nanos(), Ctx.now().nanos());
}

// --- Kernel launches ----------------------------------------------------------

class DeviceLaunchTest : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(DeviceLaunchTest, VecAddFunctional) {
  Context Ctx;
  Device &Dev = GetParam() == DeviceKind::Cpu ? Ctx.cpu() : Ctx.gpu();
  auto Queue = Ctx.createQueue(Dev);
  const int64_t N = 256;
  auto A = Ctx.createBuffer(Dev, N * 4);
  auto B = Ctx.createBuffer(Dev, N * 4);
  auto C = Ctx.createBuffer(Dev, N * 4);
  std::vector<float> HA(N, 2.0f), HB(N, 3.0f), HC(N, 0.0f);
  Queue->enqueueWrite(*A, HA.data(), N * 4);
  Queue->enqueueWrite(*B, HB.data(), N * 4);
  EventPtr Done = Queue->enqueueKernel(vecAddDesc(*A, *B, *C, N));
  Done->wait();
  EXPECT_EQ(Done->payload(), N / 32u); // All groups executed.
  Queue->enqueueRead(*C, HC.data(), N * 4, 0, /*Blocking=*/true);
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(HC[I], 5.0f);
}

TEST_P(DeviceLaunchTest, FlatRangeRestrictionExecutesOnlySlice) {
  Context Ctx;
  Device &Dev = GetParam() == DeviceKind::Cpu ? Ctx.cpu() : Ctx.gpu();
  auto Queue = Ctx.createQueue(Dev);
  const int64_t N = 256; // 8 groups of 32.
  auto A = Ctx.createBuffer(Dev, N * 4);
  auto B = Ctx.createBuffer(Dev, N * 4);
  auto C = Ctx.createBuffer(Dev, N * 4);
  std::vector<float> HA(N, 1.0f), HB(N, 1.0f), HC(N, -1.0f);
  Queue->enqueueWrite(*A, HA.data(), N * 4);
  Queue->enqueueWrite(*B, HB.data(), N * 4);
  Queue->enqueueWrite(*C, HC.data(), N * 4);
  LaunchDesc Desc = vecAddDesc(*A, *B, *C, N);
  Desc.FlatBegin = 2;
  Desc.FlatEnd = 5;
  EventPtr Done = Queue->enqueueKernel(std::move(Desc));
  Done->wait();
  EXPECT_EQ(Done->payload(), 3u);
  Queue->enqueueRead(*C, HC.data(), N * 4, 0, /*Blocking=*/true);
  for (int64_t I = 0; I < N; ++I) {
    if (I >= 64 && I < 160)
      EXPECT_FLOAT_EQ(HC[I], 2.0f) << I;
    else
      EXPECT_FLOAT_EQ(HC[I], -1.0f) << I;
  }
}

INSTANTIATE_TEST_SUITE_P(BothDevices, DeviceLaunchTest,
                         ::testing::Values(DeviceKind::Cpu, DeviceKind::Gpu),
                         [](const ::testing::TestParamInfo<DeviceKind> &I) {
                           return I.param == DeviceKind::Cpu ? "Cpu" : "Gpu";
                         });

// --- CPU engine timing ---------------------------------------------------------

TEST(CpuEngineTest, LaunchDurationAmortizesOverhead) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Cpu = static_cast<CpuEngine &>(Ctx.cpu());
  auto A = Ctx.createBuffer(Ctx.cpu(), 4096 * 4);
  auto B = Ctx.createBuffer(Ctx.cpu(), 4096 * 4);
  auto C = Ctx.createBuffer(Ctx.cpu(), 4096 * 4);
  LaunchDesc Desc = vecAddDesc(*A, *B, *C, 4096);

  Desc.FlatBegin = 0;
  Desc.FlatEnd = 8;
  double PerWg8 = Cpu.launchDuration(Desc).toSeconds() / 8;
  Desc.FlatEnd = 64;
  double PerWg64 = Cpu.launchDuration(Desc).toSeconds() / 64;
  // Larger subkernels amortize the launch overhead (the effect the
  // adaptive chunk heuristic exploits, paper section 5.1).
  EXPECT_LT(PerWg64, PerWg8);
}

TEST(CpuEngineTest, WorkGroupSplittingSpeedsUpSmallLaunches) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Cpu = static_cast<CpuEngine &>(Ctx.cpu());
  const kern::KernelInfo &Syrk = kern::Registry::builtin().get("syrk_kernel");
  LaunchDesc Desc;
  Desc.Kernel = &Syrk;
  Desc.Range = kern::NDRange::of2D(256, 256, 32, 8);
  Desc.Args = {LaunchArg::buffer(nullptr), LaunchArg::buffer(nullptr),
               LaunchArg::scalarFp(1.0), LaunchArg::scalarFp(1.0),
               LaunchArg::scalarInt(256), LaunchArg::scalarInt(256)};
  // Bind real (timing-only) buffers for validity.
  auto A = Ctx.createBuffer(Ctx.cpu(), 256 * 256 * 4);
  auto C = Ctx.createBuffer(Ctx.cpu(), 256 * 256 * 4);
  Desc.Args[0] = LaunchArg::buffer(A.get());
  Desc.Args[1] = LaunchArg::buffer(C.get());
  Desc.FlatBegin = 0;
  Desc.FlatEnd = 2; // Fewer groups than the 8 compute units.

  Desc.SplitWorkGroups = false;
  Duration NoSplit = Cpu.launchDuration(Desc);
  Desc.SplitWorkGroups = true;
  Duration Split = Cpu.launchDuration(Desc);
  // Splitting each work-group across all units must be faster.
  EXPECT_LT(Split.nanos(), NoSplit.nanos());
}

// --- GPU abort behaviour ----------------------------------------------------------

TEST(GpuEngineTest, AbortBoundaryStopsRemainingGroups) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  const int64_t N = 256 * 32;
  auto A = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto B = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), N * 4);
  LaunchDesc Desc = vecAddDesc(*A, *B, *C, N); // 256 groups.
  Desc.Abort.Kind = hw::AbortPolicyKind::AtStart;
  // The "CPU" has completed everything from group 100 up, from the start.
  Desc.Status = std::make_shared<StatusWord>(100);
  EventPtr Done = Queue->enqueueKernel(std::move(Desc));
  Done->wait();
  EXPECT_EQ(Done->payload(), 100u);
}

TEST(GpuEngineTest, NoAbortWithoutPolicyEvenIfBoundarySet) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  const int64_t N = 256 * 32;
  auto A = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto B = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), N * 4);
  LaunchDesc Desc = vecAddDesc(*A, *B, *C, N);
  Desc.Abort.Kind = hw::AbortPolicyKind::None; // Unmodified kernel.
  Desc.Status = std::make_shared<StatusWord>(0);
  EventPtr Done = Queue->enqueueKernel(std::move(Desc));
  Done->wait();
  EXPECT_EQ(Done->payload(), 256u);
}

TEST(GpuEngineTest, BoundaryLoweredMidKernelShortensExecution) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  const kern::KernelInfo &Syrk = kern::Registry::builtin().get("syrk_kernel");
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024 * 1024 * 4);
  auto MakeDesc = [&](std::shared_ptr<StatusWord> Boundary) {
    LaunchDesc Desc;
    Desc.Kernel = &Syrk;
    Desc.Range = kern::NDRange::of2D(1024, 1024, 32, 8); // 4096 groups.
    Desc.Args = {LaunchArg::buffer(A.get()), LaunchArg::buffer(C.get()),
                 LaunchArg::scalarFp(1.0), LaunchArg::scalarFp(1.0),
                 LaunchArg::scalarInt(1024), LaunchArg::scalarInt(1024)};
    Desc.Abort.Kind = hw::AbortPolicyKind::InLoop;
    Desc.Status = std::move(Boundary);
    return Desc;
  };

  // Full run.
  TimePoint T0 = Ctx.now();
  EventPtr Full = Queue->enqueueKernel(
      MakeDesc(std::make_shared<StatusWord>(uint64_t(1) << 40)));
  Full->wait();
  Duration FullTime = Ctx.now() - T0;
  EXPECT_EQ(Full->payload(), 4096u);

  // The boundary drops to 2048 once simulated time passes one quarter of
  // the full run (as if CPU results arrived then).
  auto Boundary = std::make_shared<StatusWord>(1ull << 40);
  TimePoint Cut = Ctx.now() + Duration::nanoseconds(FullTime.nanos() / 4);
  Ctx.simulator().scheduleAt(Cut, [Boundary] { Boundary->lower(2048); });
  TimePoint T1 = Ctx.now();
  EventPtr Cutoff = Queue->enqueueKernel(MakeDesc(Boundary));
  Cutoff->wait();
  Duration CutTime = Ctx.now() - T1;
  EXPECT_LT(Cutoff->payload(), 4096u);
  EXPECT_GE(Cutoff->payload(), 2048u);
  EXPECT_LT(CutTime.nanos(), FullTime.nanos() * 3 / 4);
}

TEST(GpuEngineTest, LaunchDurationMatchesExecutedTime) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto &Gpu = static_cast<GpuEngine &>(Ctx.gpu());
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 4096 * 4);
  auto B = Ctx.createBuffer(Ctx.gpu(), 4096 * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), 4096 * 4);
  LaunchDesc Desc = vecAddDesc(*A, *B, *C, 4096);
  Duration Analytic = Gpu.launchDuration(Desc);
  TimePoint T0 = Ctx.now();
  Queue->enqueueKernel(Desc)->wait();
  EXPECT_EQ((Ctx.now() - T0).nanos(), Analytic.nanos());
}

// --- TimingOnly functional safety ---------------------------------------------

TEST(TimingOnlyTest, KernelLaunchesAndTransfersRunWithoutData) {
  Context Ctx(hw::paperMachine(), ExecMode::TimingOnly);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto A = Ctx.createBuffer(Ctx.gpu(), 1024);
  auto B = Ctx.createBuffer(Ctx.gpu(), 1024);
  auto C = Ctx.createBuffer(Ctx.gpu(), 1024);
  Queue->enqueueWrite(*A, nullptr, 1024);
  Queue->enqueueCopy(*A, *B, 1024);
  EventPtr Done = Queue->enqueueKernel(vecAddDesc(*A, *B, *C, 256));
  Queue->enqueueRead(*C, nullptr, 1024);
  Queue->finish();
  EXPECT_TRUE(Done->isComplete());
  EXPECT_GT(Ctx.now().nanos(), 0);
}

TEST(QueueDeathTest, CrossDeviceBufferRejected) {
  Context Ctx;
  auto GpuQueue = Ctx.createQueue(Ctx.gpu());
  auto CpuBuf = Ctx.createBuffer(Ctx.cpu(), 64);
  EXPECT_DEATH(GpuQueue->enqueueWrite(*CpuBuf, nullptr, 64),
               "another device");
}

TEST(QueueDeathTest, OverrunningWriteRejected) {
  Context Ctx;
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 64);
  EXPECT_DEATH(Queue->enqueueWrite(*Buf, nullptr, 65), "overruns");
}

} // namespace

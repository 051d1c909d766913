//===- tests/dag_test.cpp - Compound DAG job tests -------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for fcl::dag: dependence-graph construction from workloads (RAW,
/// WAW and WAR edges from registry argument metadata), the buffer residency
/// tracker, and the two-queue DAG executor - functional correctness under
/// both placements, transfer elision under residency-aware placement, and
/// the acceptance contract that residency beats the residency-blind
/// baseline on both PCIe bytes and latency.
///
//===----------------------------------------------------------------------===//

#include "dag/DagExec.h"
#include "dag/Graph.h"
#include "dag/Pipelines.h"
#include "dag/Residency.h"
#include "serve/Engine.h"
#include "work/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace fcl;
using namespace fcl::dag;

namespace {

Graph graphOf(const work::Workload &W) { return Graph::fromWorkload(W); }

/// Runs one DAG job to completion on a private simulated pair and returns
/// its stats; fails the test if the done callback does not fire exactly
/// once or validation fails.
DagStats runOne(const work::Workload &W, Placement P,
                mcl::ExecMode Mode = mcl::ExecMode::Functional) {
  mcl::Context Ctx(hw::paperMachine(), Mode);
  Graph G = graphOf(W);
  DagStats S;
  serve::HostData Host(W);
  bool Functional = Mode == mcl::ExecMode::Functional;
  DagJobExec E(Ctx, W, G, P, Functional ? &Host : nullptr, Functional, &S,
               nullptr);
  int DoneCount = 0;
  E.start([&DoneCount] { ++DoneCount; });
  Ctx.simulator().run();
  EXPECT_EQ(DoneCount, 1);
  EXPECT_FALSE(E.validationFailed());
  return S;
}

TEST(DagGraphTest, BicgIsTwoIndependentNodes) {
  Graph G = graphOf(work::makeBicg(64, 64));
  ASSERT_EQ(G.size(), 2u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(G.roots(), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(G.maxParallelism(), 2u);
}

TEST(DagGraphTest, TwoMmIsAChain) {
  Graph G = graphOf(work::make2mm(32));
  ASSERT_EQ(G.size(), 2u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_EQ(G.node(1).Deps, (std::vector<size_t>{0}));
  EXPECT_EQ(G.maxParallelism(), 1u);
  EXPECT_STREQ(G.shapeName(), "chain");
}

TEST(DagGraphTest, ThreeMmFansIn) {
  Graph G = graphOf(work::make3mm(32));
  ASSERT_EQ(G.size(), 3u);
  // E = A*B and F = C*D are independent; G = E*F joins them.
  EXPECT_TRUE(G.node(0).Deps.empty());
  EXPECT_TRUE(G.node(1).Deps.empty());
  EXPECT_EQ(G.node(2).Deps, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(G.maxParallelism(), 2u);
  EXPECT_STREQ(G.shapeName(), "fan-in");
}

TEST(DagGraphTest, DiamondShape) {
  Graph G = graphOf(makeDiamond(32));
  ASSERT_EQ(G.size(), 4u);
  EXPECT_EQ(G.numEdges(), 4u);
  EXPECT_EQ(G.roots(), (std::vector<size_t>{0}));
  EXPECT_EQ(G.node(1).Deps, (std::vector<size_t>{0}));
  EXPECT_EQ(G.node(2).Deps, (std::vector<size_t>{0}));
  EXPECT_EQ(G.node(3).Deps, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(G.node(0).Succs, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(G.maxParallelism(), 2u);
  EXPECT_STREQ(G.shapeName(), "dag");
}

TEST(DagGraphTest, FanoutWidthIsMaxParallelism) {
  Graph G = graphOf(makeFanout(32, 3));
  ASSERT_EQ(G.size(), 4u);
  EXPECT_EQ(G.numEdges(), 3u);
  for (size_t I = 1; I < 4; ++I)
    EXPECT_EQ(G.node(I).Deps, (std::vector<size_t>{0}));
  EXPECT_EQ(G.maxParallelism(), 3u);
  EXPECT_STREQ(G.shapeName(), "fan-out");
}

TEST(DagGraphTest, CovarIsOrderedBySharedBuffers) {
  // mean -> reduce (WAR on data) -> covar (RAW on mean): a 3-stage chain
  // even though only some pairs share a RAW edge.
  Graph G = graphOf(work::makeCovar(96, 96));
  ASSERT_EQ(G.size(), 3u);
  EXPECT_EQ(G.maxParallelism(), 1u);
  EXPECT_STREQ(G.shapeName(), "chain");
}

TEST(DagGraphTest, ReadWriteSetsComeFromRegistry) {
  // Diamond node 0 is E = A*B with E also an InOut accumulator: reads
  // {A, B, E}, writes {E}. Buffer layout: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7.
  Graph G = graphOf(makeDiamond(32));
  EXPECT_EQ(G.node(0).Reads, (std::vector<size_t>{0, 1, 4}));
  EXPECT_EQ(G.node(0).Writes, (std::vector<size_t>{4}));
  EXPECT_EQ(G.node(3).Writes, (std::vector<size_t>{7}));
  EXPECT_GT(G.node(0).Groups, 0u);
}

TEST(ResidencyTrackerTest, StartsHostResidentOnly) {
  ResidencyTracker R(3);
  for (size_t B = 0; B < 3; ++B) {
    EXPECT_TRUE(R.has(B, Loc::Host));
    EXPECT_FALSE(R.has(B, Loc::Gpu));
    EXPECT_FALSE(R.has(B, Loc::Cpu));
    EXPECT_EQ(R.owner(B), Loc::Host);
    EXPECT_EQ(R.version(B), 0u);
  }
}

TEST(ResidencyTrackerTest, WriteInvalidatesOtherCopies) {
  ResidencyTracker R(1);
  R.noteCopy(0, Loc::Gpu); // Upload: host and GPU both hold v0.
  EXPECT_TRUE(R.has(0, Loc::Host));
  EXPECT_TRUE(R.has(0, Loc::Gpu));
  R.noteWrite(0, Loc::Gpu); // GPU produces v1: host copy is stale.
  EXPECT_FALSE(R.has(0, Loc::Host));
  EXPECT_TRUE(R.has(0, Loc::Gpu));
  EXPECT_EQ(R.owner(0), Loc::Gpu);
  EXPECT_EQ(R.version(0), 1u);
  R.noteCopy(0, Loc::Cpu); // Cross-device copy spreads v1.
  EXPECT_TRUE(R.has(0, Loc::Cpu));
  EXPECT_EQ(R.version(0), 1u);
  // owner() prefers the host once it holds the current version again.
  R.noteCopy(0, Loc::Host);
  EXPECT_EQ(R.owner(0), Loc::Host);
}

TEST(DagPlacementTest, ParseAndNames) {
  Placement P;
  EXPECT_TRUE(parsePlacement("residency", P));
  EXPECT_EQ(P, Placement::Residency);
  EXPECT_TRUE(parsePlacement("blind", P));
  EXPECT_EQ(P, Placement::Blind);
  EXPECT_FALSE(parsePlacement("nosuch", P));
  EXPECT_STREQ(placementName(Placement::Residency), "residency");
  EXPECT_STREQ(placementName(Placement::Blind), "blind");
}

TEST(DagExecTest, DiamondValidatesUnderBothPlacements) {
  for (Placement P : {Placement::Residency, Placement::Blind}) {
    DagStats S = runOne(makeDiamond(32), P);
    EXPECT_EQ(S.Jobs, 1u);
    EXPECT_EQ(S.Nodes, 4u);
    EXPECT_EQ(S.GpuNodes + S.CpuNodes, S.Nodes);
  }
}

TEST(DagExecTest, PolybenchChainsValidate) {
  for (Placement P : {Placement::Residency, Placement::Blind}) {
    runOne(work::make2mm(32), P);
    runOne(work::make3mm(32), P);
    runOne(work::makeBicg(192, 192), P);
    runOne(work::makeCovar(96, 96), P);
    runOne(makeFanout(32, 3), P);
  }
}

TEST(DagExecTest, ResidencySkipsTransfersBlindNever) {
  DagStats R = runOne(work::make2mm(32), Placement::Residency);
  EXPECT_GT(R.TransfersSkipped, 0u);
  EXPECT_GT(R.BytesSaved, 0u);
  DagStats B = runOne(work::make2mm(32), Placement::Blind);
  EXPECT_EQ(B.TransfersSkipped, 0u);
  EXPECT_EQ(B.BytesSaved, 0u);
  // The blind baseline stages every node through the host, so it always
  // moves at least as many bytes and strictly more PCIe bytes.
  EXPECT_GT(B.PcieBytes, R.PcieBytes);
  EXPECT_GE(B.Transfers, R.Transfers);
}

TEST(DagExecTest, TimingOnlyModeCountsTheSameTransfers) {
  // Transfer accounting must not depend on functional execution: byte
  // ledgers are part of the deterministic report contract.
  DagStats F = runOne(makeDiamond(32), Placement::Residency);
  DagStats T =
      runOne(makeDiamond(32), Placement::Residency, mcl::ExecMode::TimingOnly);
  EXPECT_EQ(F.Transfers, T.Transfers);
  EXPECT_EQ(F.TransferBytes, T.TransferBytes);
  EXPECT_EQ(F.PcieBytes, T.PcieBytes);
  EXPECT_EQ(F.TransfersSkipped, T.TransfersSkipped);
}

TEST(DagExecTest, TracerGetsOneSlicePerNode) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  work::Workload W = makeDiamond(32);
  Graph G = graphOf(W);
  trace::Tracer T;
  DagJobExec E(Ctx, W, G, Placement::Residency, /*Host=*/nullptr,
               /*Validate=*/false, nullptr, &T);
  bool Done = false;
  E.start([&Done] { Done = true; });
  Ctx.simulator().run();
  ASSERT_TRUE(Done);
  EXPECT_EQ(T.laneEvents("Serve DAG").size(), 4u);
}

TEST(DagEngineTest, PipelineMixRunsDagJobsUnderEveryPolicy) {
  for (serve::Policy P :
       {serve::Policy::FifoExclusive, serve::Policy::DeviceAffine,
        serve::Policy::FluidicCorun}) {
    serve::EngineConfig Cfg;
    Cfg.P = P;
    Cfg.Mix = serve::MixKind::Pipeline;
    Cfg.Streams = 6;
    Cfg.Arrival.Kind = serve::ArrivalKind::Poisson;
    Cfg.Arrival.RatePerSec = 250;
    Cfg.Horizon = Duration::milliseconds(60);
    Cfg.Seed = 5;
    Cfg.Mode = mcl::ExecMode::Functional;
    Cfg.Validate = true;
    serve::Engine E(Cfg);
    serve::ServeReport Rep = E.run();
    EXPECT_GT(Rep.DagJobs, 0u);
    EXPECT_EQ(Rep.ValidationFailures, 0u);
    EXPECT_EQ(Rep.Completed,
              Rep.CoopJobs + Rep.GpuJobs + Rep.CpuJobs + Rep.DagJobs);
    EXPECT_EQ(Rep.DagPlacement, "residency");
    EXPECT_EQ(Rep.DagGpuNodes + Rep.DagCpuNodes, Rep.DagNodes);
  }
}

TEST(DagEngineTest, LoadedPipelineOverlapsBothDevices) {
  serve::EngineConfig Cfg;
  Cfg.P = serve::Policy::FluidicCorun;
  Cfg.Mix = serve::MixKind::Pipeline;
  Cfg.Streams = 8;
  Cfg.Arrival.Kind = serve::ArrivalKind::Poisson;
  Cfg.Arrival.RatePerSec = 300;
  Cfg.Horizon = Duration::milliseconds(100);
  Cfg.Seed = 7;
  serve::Engine E(Cfg);
  serve::ServeReport Rep = E.run();
  // Independent DAG branches must actually spread across the pair.
  EXPECT_GT(Rep.DagGpuNodes, 0u);
  EXPECT_GT(Rep.DagCpuNodes, 0u);
  EXPECT_GT(Rep.DagTransfersSkipped, 0u);
}

serve::ServeReport runPipeline(Placement P, uint64_t Seed) {
  serve::EngineConfig Cfg;
  Cfg.P = serve::Policy::FluidicCorun;
  Cfg.Mix = serve::MixKind::Pipeline;
  Cfg.DagPlace = P;
  Cfg.Streams = 8;
  Cfg.Arrival.Kind = serve::ArrivalKind::Poisson;
  Cfg.Arrival.RatePerSec = 300;
  Cfg.Horizon = Duration::milliseconds(150);
  Cfg.Seed = Seed;
  serve::Engine E(Cfg);
  return E.run();
}

// Residency moves fewer PCIe bytes on every seed. Per seed the two
// placements' p95 are close, since host API time delays only the job that
// pays it, so the latency claim is on p95 summed over ten seeds.
TEST(DagEngineTest, ResidencyBeatsBlindOnPcieBytesAndP95) {
  double ResidencyP95 = 0, BlindP95 = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    serve::ServeReport R = runPipeline(Placement::Residency, Seed);
    serve::ServeReport B = runPipeline(Placement::Blind, Seed);
    EXPECT_LT(R.DagPcieBytes, B.DagPcieBytes) << "seed " << Seed;
    ResidencyP95 += R.E2e.P95;
    BlindP95 += B.E2e.P95;
  }
  EXPECT_LT(ResidencyP95, BlindP95);
}

TEST(DagEngineTest, SameSeedPipelineReportsAreByteIdentical) {
  serve::ServeReport A = runPipeline(Placement::Residency, 9);
  serve::ServeReport B = runPipeline(Placement::Residency, 9);
  EXPECT_EQ(A.toJson(), B.toJson());
  serve::ServeReport C = runPipeline(Placement::Residency, 10);
  EXPECT_NE(A.toJson(), C.toJson());
}

TEST(DagDeathTest, GraphRejectsArgCountMismatch) {
  work::Workload W = makeDiamond(32);
  W.Calls[0].Args.pop_back();
  EXPECT_DEATH((void)Graph::fromWorkload(W), "argument");
}

} // namespace

//===- tests/workload_test.cpp - Workload / driver tests -------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fluidicl/Runtime.h"
#include "work/Driver.h"
#include "work/Workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

using namespace fcl;
using namespace fcl::work;

namespace {

TEST(WorkloadTest, PaperSuiteHasSixBenchmarks) {
  auto Suite = paperSuite();
  ASSERT_EQ(Suite.size(), 6u);
  EXPECT_EQ(Suite[0].Name, "ATAX(8192)");
  EXPECT_EQ(Suite[1].Name, "BICG(4096)");
  EXPECT_EQ(Suite[2].Name, "CORR(2048)");
  EXPECT_EQ(Suite[3].Name, "GESUMMV(4096)");
  EXPECT_EQ(Suite[4].Name, "SYRK(1024)");
  EXPECT_EQ(Suite[5].Name, "SYR2K(1536)");
}

TEST(WorkloadTest, KernelCountsMatchTable2) {
  auto Suite = paperSuite();
  EXPECT_EQ(Suite[0].Calls.size(), 2u); // ATAX
  EXPECT_EQ(Suite[1].Calls.size(), 2u); // BICG
  EXPECT_EQ(Suite[2].Calls.size(), 4u); // CORR
  EXPECT_EQ(Suite[3].Calls.size(), 1u); // GESUMMV
  EXPECT_EQ(Suite[4].Calls.size(), 1u); // SYRK
  EXPECT_EQ(Suite[5].Calls.size(), 1u); // SYR2K
}

TEST(WorkloadTest, BufferArgumentsReferenceDeclaredBuffers) {
  for (const Workload &W : paperSuite()) {
    for (const KernelCall &Call : W.Calls) {
      for (const runtime::KArg &A : Call.Args) {
        if (A.IsBuffer) {
          EXPECT_LT(A.Buf, W.Buffers.size()) << W.Name;
        }
      }
    }
    for (size_t R : W.ResultBuffers)
      EXPECT_LT(R, W.Buffers.size()) << W.Name;
    EXPECT_FALSE(W.ResultBuffers.empty()) << W.Name;
  }
}

TEST(WorkloadTest, GroupCountsPositive) {
  for (const Workload &W : paperSuite()) {
    auto Counts = W.groupCounts();
    ASSERT_EQ(Counts.size(), W.Calls.size());
    for (uint64_t C : Counts)
      EXPECT_GT(C, 0u);
  }
}

TEST(WorkloadTest, InitHostDataDeterministic) {
  Workload W = testSuite()[0];
  auto A = initHostData(W);
  auto B = initHostData(W);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]);
}

TEST(WorkloadTest, InitHostDataFillsPositiveFloats) {
  Workload W = testSuite()[3];
  auto Bufs = initHostData(W);
  for (const auto &B : Bufs) {
    const float *F = reinterpret_cast<const float *>(B.data());
    for (size_t I = 0; I < B.size() / 4; ++I) {
      EXPECT_GT(F[I], 0.0f);
      EXPECT_LE(F[I], 1.0f);
    }
  }
}

TEST(DriverTest, ComputeReferenceMatchesManualAtax) {
  Workload W = makeAtax(64, 64);
  auto Bufs = initHostData(W);
  auto Orig = Bufs;
  computeReference(W, Bufs);
  const float *A = reinterpret_cast<const float *>(Orig[0].data());
  const float *X = reinterpret_cast<const float *>(Orig[1].data());
  const float *Y = reinterpret_cast<const float *>(Bufs[3].data());
  for (int64_t J = 0; J < 64; ++J) {
    float Want = 0;
    for (int64_t I = 0; I < 64; ++I) {
      float Tmp = 0;
      for (int64_t K = 0; K < 64; ++K)
        Tmp += A[I * 64 + K] * X[K];
      Want += A[I * 64 + J] * Tmp;
    }
    EXPECT_NEAR(Y[J], Want, 1e-2) << J;
  }
}

TEST(DriverTest, RunResultTotalsPositiveAndOrdered) {
  Workload W = makeSyrk(256, 256);
  RunConfig C;
  Duration Cpu = timeUnder(RuntimeKind::CpuOnly, W, C);
  Duration Gpu = timeUnder(RuntimeKind::GpuOnly, W, C);
  EXPECT_GT(Cpu.nanos(), 0);
  EXPECT_GT(Gpu.nanos(), 0);
}

TEST(DriverTest, TimingDeterministicAcrossRuns) {
  Workload W = makeBicg(1024, 1024);
  RunConfig C;
  Duration A = timeUnder(RuntimeKind::FluidiCL, W, C);
  Duration B = timeUnder(RuntimeKind::FluidiCL, W, C);
  EXPECT_EQ(A.nanos(), B.nanos());
}

TEST(DriverTest, FunctionalAndTimingOnlyAgreeOnTime) {
  // Functional execution must not change simulated time.
  Workload W = testSuite()[4];
  RunConfig C;
  C.Mode = mcl::ExecMode::TimingOnly;
  Duration TOnly = timeUnder(RuntimeKind::FluidiCL, W, C);
  C.Mode = mcl::ExecMode::Functional;
  Duration Func = timeUnder(RuntimeKind::FluidiCL, W, C);
  EXPECT_EQ(TOnly.nanos(), Func.nanos());
}

TEST(DriverTest, ValidationDetectsMismatch) {
  // Sanity-check the validator itself: a workload whose result buffer is
  // never written by any kernel cannot match the reference (which leaves
  // it at its random initial content either way) - so instead corrupt the
  // comparison by validating under a runtime but with a *different*
  // workload's reference. Simpler: validate that MaxAbsError is reported.
  Workload W = testSuite()[1];
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  fluidicl::Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, W, true);
  EXPECT_TRUE(Res.Validated);
  EXPECT_TRUE(Res.Valid);
  EXPECT_LT(Res.MaxAbsError, 1e-5);
}

TEST(DriverTest, MatchesReferenceRejectsOneFloatBeyondTolerance) {
  Workload W = testSuite()[1]; // BICG: two result buffers.
  std::vector<std::vector<std::byte>> Ref = initHostData(W);
  computeReference(W, Ref);
  std::vector<std::vector<std::byte>> Results;
  for (size_t R : W.ResultBuffers)
    Results.push_back(Ref[R]);
  double Err = -1;
  EXPECT_TRUE(matchesReference(W, Ref, Results, &Err));
  EXPECT_EQ(Err, 0);

  // Move one float of the second result: within 1e-5 + 1e-5 * |want| it
  // still matches, beyond it the check fails, and MaxAbsError reports the
  // move either way.
  float *Got = reinterpret_cast<float *>(Results[1].data());
  const float Want = Got[7];
  const double Tol = 1e-5 + 1e-5 * std::fabs(Want);
  Got[7] = static_cast<float>(Want + 0.5 * Tol);
  EXPECT_TRUE(matchesReference(W, Ref, Results, &Err));
  EXPECT_DOUBLE_EQ(Err, static_cast<double>(Got[7]) - Want);
  EXPECT_LT(Err, Tol);
  Got[7] = static_cast<float>(Want + 2 * Tol);
  EXPECT_FALSE(matchesReference(W, Ref, Results, &Err));
  EXPECT_DOUBLE_EQ(Err, static_cast<double>(Got[7]) - Want);
  EXPECT_GT(Err, Tol);
  EXPECT_FALSE(matchesReference(W, Ref, Results));
  Got[7] = std::nanf("");
  EXPECT_FALSE(matchesReference(W, Ref, Results));
}

TEST(RuntimeTableTest, ListsEveryKindOnceInEnumOrder) {
  const std::vector<NamedRuntime> &Kinds = runtimeKinds();
  ASSERT_EQ(Kinds.size(), static_cast<size_t>(RuntimeKind::FluidiCL) + 1);
  const std::vector<std::string> ToolNames = {
      "cpu", "gpu", "static", "socl-eager", "socl-dmda", "fluidicl"};
  std::set<std::string> Seen;
  for (size_t I = 0; I < Kinds.size(); ++I) {
    EXPECT_EQ(static_cast<size_t>(Kinds[I].Kind), I) << Kinds[I].Name;
    EXPECT_EQ(Kinds[I].Name, ToolNames[I]);
    EXPECT_TRUE(Seen.insert(Kinds[I].Name).second) << Kinds[I].Name;
  }
}

TEST(RuntimeTableTest, TimeUnderEqualsReportWallForEveryKind) {
  Workload W = makeBicg(256, 256);
  RunConfig C;
  C.GpuFraction = 0.3;
  for (const NamedRuntime &R : runtimeKinds()) {
    stats::RunReport Rep = reportUnder(R.Kind, W, C);
    EXPECT_EQ(timeUnder(R.Kind, W, C).nanos(), Rep.Wall.nanos()) << R.Name;
    if (R.Kind == RuntimeKind::Static) {
      EXPECT_EQ(Rep.RuntimeName, "Static30");
    }
  }
}

TEST(DriverTest, OracleBestFractionSensible) {
  RunConfig C;
  double Frac = -1;
  oracleStaticPartition(makeGesummv(4096), C, 10, &Frac);
  EXPECT_LT(Frac, 0.5); // CPU-friendly workload: mostly-CPU split wins.
  oracleStaticPartition(makeAtax(8192, 8192), C, 10, &Frac);
  EXPECT_GT(Frac, 0.5); // GPU-friendly workload.
}

} // namespace

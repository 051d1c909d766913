//===- tests/prof_test.cpp - Wall-clock profiler tests --------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers fcl::prof: nested-scope exclusive-time accounting, counter
// aggregation, thread safety of concurrent scopes + snapshots (run under
// TSan in CI), the peak-RSS probe, and - the load-bearing invariant - that
// enabling profiling leaves the simulated results byte-identical (both the
// serve report and the run report).
//
//===----------------------------------------------------------------------===//

#include "prof/BenchReport.h"
#include "prof/Profiler.h"
#include "serve/Engine.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace fcl;
using namespace fcl::prof;

namespace {

/// The profiler is process-global; every test starts from zeroed stats
/// and a disabled profiler, and leaves it disabled.
class ProfTest : public ::testing::Test {
protected:
  void SetUp() override {
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
  }
  void TearDown() override {
    Profiler::instance().setEnabled(false);
    Profiler::instance().reset();
  }
};

const PhaseStats *findPhase(const Snapshot &S, const std::string &Path) {
  for (const PhaseStats &P : S.Phases)
    if (P.Path == Path)
      return &P;
  return nullptr;
}

/// Burns wall time without sleeping (robust on loaded machines).
void spinFor(int64_t Ns) {
  int64_t Start = wallNowNs();
  while (wallNowNs() - Start < Ns) {
  }
}

TEST_F(ProfTest, DisabledScopesCollectNothing) {
  {
    FCL_PROF_SCOPE("test.disabled_phase");
    spinFor(10'000);
  }
  Snapshot S = Profiler::instance().snapshot();
  EXPECT_EQ(findPhase(S, "test.disabled_phase"), nullptr);
}

TEST_F(ProfTest, ScopeRecordsCountAndTime) {
  Profiler::instance().setEnabled(true);
  for (int I = 0; I < 3; ++I) {
    FCL_PROF_SCOPE("test.basic");
    spinFor(100'000);
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.basic");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Count, 3u);
  EXPECT_GE(P->InclusiveNs, 300'000);
  // A leaf's exclusive time is its inclusive time.
  EXPECT_EQ(P->ExclusiveNs, P->InclusiveNs);
  EXPECT_EQ(P->Depth, 0);
  EXPECT_EQ(P->Name, "test.basic");
}

TEST_F(ProfTest, NestedScopesSplitExclusiveTime) {
  Profiler::instance().setEnabled(true);
  {
    FCL_PROF_SCOPE("test.outer");
    spinFor(2'000'000); // outer self time
    {
      FCL_PROF_SCOPE("test.inner");
      spinFor(2'000'000); // inner time, inclusive to outer
    }
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *Outer = findPhase(S, "test.outer");
  const PhaseStats *Inner = findPhase(S, "test.outer/test.inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Depth, 1);
  // Exclusive = inclusive minus children, up to tick->ns conversion
  // rounding (inclusive and exclusive are converted independently).
  EXPECT_NEAR(static_cast<double>(Outer->ExclusiveNs),
              static_cast<double>(Outer->InclusiveNs - Inner->InclusiveNs),
              16.0);
  // Both self times cover their spins (to within ~1% tick->ns
  // calibration error over the short test window); the outer's self
  // excludes the inner's spin.
  EXPECT_GE(Inner->InclusiveNs, 1'900'000);
  EXPECT_GE(Outer->ExclusiveNs, 1'500'000);
  EXPECT_LE(Outer->ExclusiveNs, Outer->InclusiveNs - 1'900'000);
  // Self times sum to the outer inclusive time: nesting is never
  // double-counted (again up to per-phase conversion rounding).
  EXPECT_NEAR(static_cast<double>(Outer->ExclusiveNs + Inner->ExclusiveNs),
              static_cast<double>(Outer->InclusiveNs), 32.0);
}

TEST_F(ProfTest, SameNameReenteredAggregatesByPath) {
  Profiler::instance().setEnabled(true);
  for (int I = 0; I < 5; ++I) {
    FCL_PROF_SCOPE("test.repeat");
    { FCL_PROF_SCOPE("test.child"); }
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.repeat");
  const PhaseStats *C = findPhase(S, "test.repeat/test.child");
  ASSERT_NE(P, nullptr);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(P->Count, 5u);
  EXPECT_EQ(C->Count, 5u);
}

TEST_F(ProfTest, CountersSumOnlyWhenEnabled) {
  static Counter C("test.counter");
  C.add(7); // disabled: dropped
  Profiler::instance().setEnabled(true);
  C.add(2);
  C.add(3);
  Profiler::instance().setEnabled(false);
  C.add(11); // disabled again: dropped
  Snapshot S = Profiler::instance().snapshot();
  ASSERT_TRUE(S.Counters.count("test.counter"));
  EXPECT_EQ(S.Counters.at("test.counter"), 5u);
}

TEST_F(ProfTest, ResetZeroesStatsButKeepsCollecting) {
  Profiler::instance().setEnabled(true);
  { FCL_PROF_SCOPE("test.reset_phase"); }
  Profiler::instance().reset();
  { FCL_PROF_SCOPE("test.reset_phase"); }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *P = findPhase(S, "test.reset_phase");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Count, 1u);
}

TEST_F(ProfTest, TopByExclusiveOrdersDescending) {
  Profiler::instance().setEnabled(true);
  {
    FCL_PROF_SCOPE("test.top_small");
    spinFor(200'000);
  }
  {
    FCL_PROF_SCOPE("test.top_big");
    spinFor(4'000'000);
  }
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  std::vector<PhaseStats> Top = S.topByExclusive(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Path, "test.top_big");
  EXPECT_FALSE(S.renderText(/*TopN=*/2).empty());
}

// Exercised under TSan in CI: four threads hammer nested scopes while the
// main thread snapshots concurrently; totals must come out exact.
TEST_F(ProfTest, ThreadSafetyUnderConcurrentScopesAndSnapshots) {
  constexpr int Threads = 4;
  constexpr int Iters = 20'000;
  Profiler::instance().setEnabled(true);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([] {
      static Counter C("test.mt_counter");
      for (int I = 0; I < Iters; ++I) {
        FCL_PROF_SCOPE("test.mt_outer");
        C.add();
        { FCL_PROF_SCOPE("test.mt_inner"); }
      }
    });
  // Concurrent snapshots while the workers run.
  for (int I = 0; I < 50; ++I)
    (void)Profiler::instance().snapshot();
  for (std::thread &W : Workers)
    W.join();
  Profiler::instance().setEnabled(false);
  Snapshot S = Profiler::instance().snapshot();
  const PhaseStats *Outer = findPhase(S, "test.mt_outer");
  const PhaseStats *Inner = findPhase(S, "test.mt_outer/test.mt_inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Count, static_cast<uint64_t>(Threads) * Iters);
  EXPECT_EQ(Inner->Count, static_cast<uint64_t>(Threads) * Iters);
  EXPECT_EQ(S.Counters.at("test.mt_counter"),
            static_cast<uint64_t>(Threads) * Iters);
}

TEST_F(ProfTest, PeakRssBytesIsPositive) { EXPECT_GT(peakRssBytes(), 0u); }

serve::ServeReport runServeOnce() {
  serve::EngineConfig Cfg;
  Cfg.P = serve::Policy::FluidicCorun;
  Cfg.Streams = 4;
  Cfg.Seed = 11;
  Cfg.Horizon = Duration::milliseconds(15);
  serve::Engine Engine(Cfg);
  return Engine.run();
}

// The determinism invariant from the ISSUE: profiling reads only the wall
// clock, so the simulated serve report must be byte-identical with
// profiling on or off.
TEST_F(ProfTest, ServeReportByteIdenticalWithProfilingOn) {
  std::string Off = runServeOnce().toJson();
  Profiler::instance().setEnabled(true);
  std::string On = runServeOnce().toJson();
  Profiler::instance().setEnabled(false);
  EXPECT_EQ(Off, On);
  // And the profiler actually saw the run.
  Snapshot S = Profiler::instance().snapshot();
  EXPECT_NE(findPhase(S, "sim.run"), nullptr);
}

// Same invariant for the single-run report path.
TEST_F(ProfTest, RunReportByteIdenticalWithProfilingOn) {
  work::Workload W = work::makeSyrk(128, 128);
  work::RunConfig C;
  std::string Off =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, C).renderJson();
  Profiler::instance().setEnabled(true);
  std::string On =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, C).renderJson();
  Profiler::instance().setEnabled(false);
  EXPECT_EQ(Off, On);
}

// The simulator's executed-event count surfaces in run and serve reports.
TEST_F(ProfTest, RunReportCarriesSimQueueHealthStats) {
  work::Workload W = work::makeSyrk(128, 128);
  stats::RunReport Rep =
      work::reportUnder(work::RuntimeKind::FluidiCL, W, work::RunConfig());
  EXPECT_GT(Rep.Counters.counter("sim_events_executed"), 0u);
  std::string Json = Rep.renderJson();
  EXPECT_NE(Json.find("sim_events_executed"), std::string::npos);
}

TEST_F(ProfTest, ServeReportCarriesSimQueueHealthStats) {
  serve::ServeReport Rep = runServeOnce();
  std::string Json = Rep.toJson();
  EXPECT_NE(Json.find("sim_events_executed"), std::string::npos);
}

} // namespace

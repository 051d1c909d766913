//===- tests/race_test.cpp - fcl::race analyzer tests ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the happens-before race analyzer: fork/drain ordering of the
/// vector-clock core, declared synchronization (sections, leases, guards)
/// on both hazardous and clean shapes, finding deduplication, drain and
/// dead-strand pruning of clock entries, the check::DiagSink
/// bridge, the seeded fixture sweep, and the serve-engine gates: a
/// high-concurrency mixed workload must analyze clean AND produce
/// byte-identical reports with the analyzer on or off, and clocks must
/// stay bounded as a run grows.
///
//===----------------------------------------------------------------------===//

#include "check/Diag.h"
#include "race/Bridge.h"
#include "race/Fixtures.h"
#include "race/Race.h"
#include "serve/Engine.h"
#include "serve/Metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace fcl;

namespace {

/// Arms the process-wide analyzer for one test and disarms it on exit so
/// tests cannot leak an enabled analyzer into each other.
struct Armed {
  Armed() {
    race::Analyzer::instance().reset();
    race::Analyzer::instance().setEnabled(true);
  }
  ~Armed() {
    race::Analyzer::instance().setEnabled(false);
    race::Analyzer::instance().reset();
  }
  race::Analyzer &operator*() { return race::Analyzer::instance(); }
  race::Analyzer *operator->() { return &race::Analyzer::instance(); }
};

std::vector<race::Finding> findingsOf(race::Analyzer &A) {
  return A.findings();
}

TEST(RaceCoreTest, ForkEdgeOrdersParentBeforeChild) {
  Armed A;
  A->sharedWrite("obj", "init");
  A->onSchedule(1);
  A->onEventBegin(1);
  A->sharedWrite("obj", "update"); // ordered through the fork edge
  A->onEventEnd();
  EXPECT_FALSE(A->hasFindings());
}

TEST(RaceCoreTest, SiblingEventsAreUnordered) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sharedWrite("obj", "a");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sharedWrite("obj", "b"); // no edge between siblings
  A->onEventEnd();
  std::vector<race::Finding> F = findingsOf(*A);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Kind, race::FindingKind::UnorderedAccess);
  EXPECT_EQ(F[0].Object, "obj");
}

TEST(RaceCoreTest, ReadWriteConflictIsAlsoCaught) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sharedRead("obj", "peek");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sharedWrite("obj", "clobber");
  A->onEventEnd();
  std::vector<race::Finding> F = findingsOf(*A);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Kind, race::FindingKind::UnorderedAccess);
}

TEST(RaceCoreTest, ConcurrentReadsAreNotAConflict) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sharedRead("obj", "peek");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sharedRead("obj", "peek");
  A->onEventEnd();
  EXPECT_FALSE(A->hasFindings());
}

TEST(RaceCoreTest, DrainJoinOrdersHostAfterAllEvents) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sharedWrite("obj", "a");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sharedWrite("other", "b");
  A->onEventEnd();
  A->onDrainExit(); // run loop returned: host joins both events
  A->sharedWrite("obj", "host-reads-results");
  A->sharedWrite("other", "host-reads-results");
  EXPECT_FALSE(A->hasFindings());
}

TEST(RaceCoreTest, SectionsOrderSiblingAccesses) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sectionEnter("m");
  A->sharedWrite("obj", "a");
  A->sectionExit("m");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sectionEnter("m"); // joins event#1's release
  A->sharedWrite("obj", "b");
  A->sectionExit("m");
  A->onEventEnd();
  EXPECT_FALSE(A->hasFindings());
}

TEST(RaceCoreTest, UnrelatedSectionDoesNotExempt) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onEventBegin(1);
  A->sectionEnter("m1");
  A->sharedWrite("obj", "a");
  A->sectionExit("m1");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sectionEnter("m2"); // different section: no ordering
  A->sharedWrite("obj", "b");
  A->sectionExit("m2");
  A->onEventEnd();
  std::vector<race::Finding> F = findingsOf(*A);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Kind, race::FindingKind::UnorderedAccess);
}

TEST(RaceCoreTest, LeaseOverlapDetectedAndHandoffClean) {
  Armed A;
  A->leaseAcquire("dev", "job-a");
  A->leaseRelease("dev");
  A->leaseAcquire("dev", "job-b"); // ordered handoff: clean
  EXPECT_FALSE(A->hasFindings());
  A->leaseAcquire("dev", "job-c"); // still held by job-b: overlap
  std::vector<race::Finding> F = findingsOf(*A);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Kind, race::FindingKind::LeaseOverlap);
  EXPECT_EQ(F[0].Object, "dev");
}

TEST(RaceCoreTest, GuardReentryDetected) {
  Armed A;
  A->guardEnter("cb");
  A->guardEnter("cb"); // nested entry of a non-reentrant scope
  A->guardExit("cb");
  A->guardExit("cb");
  std::vector<race::Finding> F = findingsOf(*A);
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Kind, race::FindingKind::ReentrantCallback);
}

TEST(RaceCoreTest, FindingsDeduplicateWithRepeatCount) {
  Armed A;
  A->onSchedule(1);
  A->onSchedule(2);
  A->onSchedule(3);
  A->onEventBegin(1);
  A->sharedWrite("obj", "a");
  A->onEventEnd();
  A->onEventBegin(2);
  A->sharedWrite("obj", "b"); // conflict #1 (vs event#1)
  A->onEventEnd();
  A->onEventBegin(3);
  A->sharedWrite("obj", "c"); // conflict #2 (vs event#2), same (kind, object)
  A->onEventEnd();
  std::vector<race::Finding> F = A->takeFindings();
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0].Repeats, 2u);
  EXPECT_FALSE(A->hasFindings()); // takeFindings drained the set
}

// Drains retire clock entries exactly. Each round, a fresh strand writes
// its object, continues in domain 2 and publishes; the host then drains
// domain 2. A strand that stayed in domain 2 is covered by that drain, so
// its entry is dropped and the published clock stays small. A strand that
// began in domain 1 is not: its entry alone orders the domain-1 write, so
// it must be kept, and the host's joined clock holds one per round.
TEST(RaceCoreTest, DrainsDropOnlySingleDomainStrandEntries) {
  constexpr uint64_t Rounds = 8;
  for (bool Crossed : {false, true}) {
    Armed A;
    uint32_t D1 = A->allocDomain(), D2 = A->allocDomain();
    for (uint64_t I = 1; I <= Rounds; ++I) {
      A->onSchedule(2 * I, Crossed ? D1 : D2);
      A->onEventBegin(2 * I, Crossed ? D1 : D2);
      A->sharedWrite("obj#" + std::to_string(I), "produce");
      A->onSchedule(2 * I + 1, D2); // continues the strand in domain 2
      A->onEventEnd();
      A->onEventBegin(2 * I + 1, D2);
      A->hbPublish("chan");
      A->onEventEnd();
      A->onDrainExit(D2);
    }
    A->hbJoin("chan");
    for (uint64_t I = 1; I <= Rounds; ++I)
      A->sharedWrite("obj#" + std::to_string(I), "consume");
    EXPECT_FALSE(A->hasFindings()) << "crossed=" << Crossed;
    if (Crossed)
      EXPECT_GE(A->summary().MaxClockEntries, Rounds);
    else
      EXPECT_LE(A->summary().MaxClockEntries, 2u);
  }
}

// A strand's clock entries live while something can still record or keep
// one of its accesses: a running task, a scheduled continuation, a shadow
// record. Sibling events that each write their own object under one
// section leave one entry per strand in the section's clock until their
// objects are forgotten; after that the dead strands drop out of every
// clock built, and no answer changes.
TEST(RaceCoreTest, DeadStrandsDropOutOfClocks) {
  constexpr uint64_t Rounds = 16;
  for (bool Forget : {false, true}) {
    Armed A;
    for (uint64_t I = 1; I <= Rounds; ++I)
      A->onSchedule(I);
    for (uint64_t I = 1; I <= Rounds; ++I) {
      A->onEventBegin(I);
      A->sectionEnter("m");
      A->sharedWrite("obj#" + std::to_string(I), "write");
      A->sectionExit("m");
      A->onEventEnd();
      if (Forget)
        A->forgetObject("obj#" + std::to_string(I));
    }
    // Records still held keep their entries: the next section holder is
    // ordered after every write it can still conflict with.
    A->onSchedule(Rounds + 1);
    A->onEventBegin(Rounds + 1);
    A->sectionEnter("m");
    for (uint64_t I = 1; I <= Rounds; ++I)
      A->sharedRead("obj#" + std::to_string(I), "read");
    A->sectionExit("m");
    A->onEventEnd();
    EXPECT_FALSE(A->hasFindings()) << "forget=" << Forget;
    if (Forget)
      EXPECT_LE(A->summary().MaxClockEntries, 3u);
    else
      EXPECT_GE(A->summary().MaxClockEntries, Rounds - 1);
  }
}

TEST(RaceBridgeTest, FindingsBecomeDiagsWithRepeatCarried) {
  race::Finding F;
  F.Kind = race::FindingKind::UnorderedAccess;
  F.Object = "serve.engine#0.ready";
  F.Message = "conflicting accesses";
  F.Repeats = 154;
  check::DiagSink Sink(check::Policy::Warn);
  EXPECT_EQ(race::reportFindings({F}, Sink), 1u);
  ASSERT_EQ(Sink.diags().size(), 1u);
  EXPECT_EQ(Sink.diags()[0].Kind, check::DiagKind::RaceUnorderedAccess);
  EXPECT_EQ(Sink.diags()[0].Kernel, "serve.engine#0.ready");
  EXPECT_EQ(Sink.diags()[0].Repeat, 154u);
  EXPECT_EQ(race::diagKindFor(race::FindingKind::ReentrantCallback),
            check::DiagKind::RaceReentrantCallback);
  EXPECT_EQ(race::diagKindFor(race::FindingKind::LeaseOverlap),
            check::DiagKind::RaceLeaseOverlap);
}

TEST(RaceFixturesTest, EverySeededFixtureBehavesAsDeclared) {
  ASSERT_GE(race::fixtureCases().size(), 6u);
  int Hazards = 0, Clean = 0;
  for (const race::FixtureCase &Case : race::fixtureCases())
    (Case.ExpectFinding ? Hazards : Clean) += 1;
  EXPECT_GE(Hazards, 3); // >=3 distinct seeded hazards
  EXPECT_GE(Clean, 3);   // >=3 clean counterparts
  EXPECT_TRUE(race::runFixtureSweep(/*Verbose=*/false));
}

// The analyzer's internal mutex is its only defense once simulators move
// onto OS threads; hammer it from several real threads so TSan can vet
// the locking (accesses are all by the host task, so no findings).
TEST(RaceThreadingTest, ConcurrentHooksAreMutexSafe) {
  Armed A;
  constexpr int Threads = 4, Ops = 1000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([T] {
      race::Analyzer &An = race::Analyzer::instance();
      std::string Obj = "obj#" + std::to_string(T);
      for (int I = 0; I < Ops; ++I) {
        race::Section S("m#" + std::to_string(T));
        An.sharedWrite(Obj, "w");
        An.sharedRead(Obj, "r");
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_FALSE(A->hasFindings());
  EXPECT_EQ(A->summary().AccessesChecked,
            static_cast<uint64_t>(Threads) * Ops * 2);
}

serve::EngineConfig stressConfig() {
  serve::EngineConfig Cfg;
  Cfg.P = serve::Policy::FluidicCorun;
  Cfg.Streams = 12;
  Cfg.Arrival.Kind = serve::ArrivalKind::Poisson;
  Cfg.Arrival.RatePerSec = 2000;
  Cfg.Horizon = Duration::milliseconds(30);
  Cfg.Seed = 11;
  return Cfg;
}

// Stress gate: a high-concurrency mixed workload drives the full async
// runtime surface (leases, ready queue, version tracker, buffer pool,
// stats, tracer) and must come back with zero race findings and zero
// protocol diagnostics.
TEST(RaceServeTest, HighConcurrencyStressAnalyzesClean) {
  serve::EngineConfig Cfg = stressConfig();
  Cfg.Races = check::Policy::Fail;
  Cfg.FclOpts.Check = check::Policy::Fail;
  serve::Engine E(Cfg);
  serve::ServeReport Rep = E.run();
  EXPECT_GT(Rep.Completed, 0u);
  EXPECT_TRUE(Rep.RacesEnabled);
  EXPECT_EQ(Rep.RaceFindings, 0u) << "race diags:\n"
                                  << (Rep.RaceDiags.empty()
                                          ? ""
                                          : Rep.RaceDiags.front());
  EXPECT_TRUE(Rep.CheckEnabled);
  EXPECT_EQ(Rep.CheckErrors, 0u);
  EXPECT_EQ(Rep.CheckWarnings, 0u);
}

// Linear by test: clocks must not grow with run length. Without drain
// pruning, the largest clock of this 16-stream corun shape holds ~600
// entries at 0.125 s and ~2,200 at 0.5 s.
TEST(RaceServeTest, ClocksStayBoundedAsRunsGrow) {
  for (double Seconds : {0.125, 0.5}) {
    serve::EngineConfig Cfg;
    Cfg.P = serve::Policy::FluidicCorun;
    Cfg.Streams = 16;
    Cfg.Arrival.Kind = serve::ArrivalKind::Poisson;
    Cfg.Arrival.RatePerSec = 150;
    Cfg.QueueDepth = 256;
    Cfg.Horizon = Duration::seconds(Seconds);
    Cfg.Seed = 1;
    Cfg.Races = check::Policy::Fail;
    serve::ServeReport Rep = serve::Engine(Cfg).run();
    EXPECT_GT(Rep.Completed, 0u);
    EXPECT_EQ(Rep.RaceFindings, 0u);
    EXPECT_LE(race::Analyzer::instance().summary().MaxClockEntries, 32u)
        << "at " << Seconds << " s";
  }
}

// Observation-only gate: same seed, analyzers on vs off, byte-identical
// report JSON and CSV.
TEST(RaceServeTest, AnalyzerNeverPerturbsTheReport) {
  serve::ServeReport Plain = serve::Engine(stressConfig()).run();
  serve::EngineConfig Armed = stressConfig();
  Armed.Races = check::Policy::Fail;
  Armed.FclOpts.Check = check::Policy::Fail;
  serve::ServeReport Analyzed = serve::Engine(Armed).run();
  EXPECT_EQ(Plain.toJson(), Analyzed.toJson());
  EXPECT_EQ(Plain.toCsv(), Analyzed.toCsv());
}

} // namespace

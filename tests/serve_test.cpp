//===- tests/serve_test.cpp - Serving-layer tests --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for fcl::serve: load generation, admission/backpressure, the three
/// dispatch policies, latency accounting, determinism (same seed =>
/// byte-identical report JSON) and the headline acceptance gate - on a
/// mixed large/small workload FluidicCorun must beat FifoExclusive on both
/// p95 end-to-end latency and total makespan.
///
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"
#include "serve/LoadGen.h"
#include "serve/Metrics.h"
#include "serve/Policy.h"
#include "trace/Tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace fcl;
using namespace fcl::serve;

namespace {

EngineConfig baseConfig(Policy P, uint64_t Seed = 7) {
  EngineConfig Cfg;
  Cfg.P = P;
  Cfg.Streams = 8;
  Cfg.Arrival.Kind = ArrivalKind::Poisson;
  Cfg.Arrival.RatePerSec = 400;
  Cfg.Horizon = Duration::milliseconds(100);
  Cfg.Seed = Seed;
  return Cfg;
}

ServeReport runServe(const EngineConfig &Cfg) {
  Engine E(Cfg);
  return E.run();
}

TEST(LoadGenTest, ParseArrivalSpecs) {
  ArrivalSpec A;
  std::string Err;
  EXPECT_TRUE(parseArrivalSpec("poisson:120", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Poisson);
  EXPECT_DOUBLE_EQ(A.RatePerSec, 120);
  EXPECT_TRUE(parseArrivalSpec("uniform:50.5", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Uniform);
  EXPECT_DOUBLE_EQ(A.RatePerSec, 50.5);
  EXPECT_TRUE(parseArrivalSpec("closed:2", A, Err));
  EXPECT_EQ(A.Kind, ArrivalKind::Closed);
  EXPECT_EQ(A.Think.nanos(), Duration::milliseconds(2).nanos());
  EXPECT_FALSE(parseArrivalSpec("poisson", A, Err));
  EXPECT_FALSE(parseArrivalSpec("poisson:-3", A, Err));
  EXPECT_FALSE(parseArrivalSpec("burst:9", A, Err));
  // Values must be finite, and the interval between a stream's requests
  // (1/rate, or the think time) must lie in [1 us, 1e6 s].
  for (const char *Bad : {"poisson:nan", "poisson:inf", "uniform:inf",
                          "closed:nan", "closed:inf", "poisson:2e6",
                          "uniform:1e9", "closed:1e-4", "poisson:1e-7",
                          "closed:2e9"})
    EXPECT_FALSE(parseArrivalSpec(Bad, A, Err)) << Bad;
  EXPECT_NE(Err.find("think time in"), std::string::npos) << Err;
  for (const char *Edge : {"poisson:1e6", "uniform:1e-6", "closed:0.001",
                           "closed:1e9"})
    EXPECT_TRUE(parseArrivalSpec(Edge, A, Err)) << Edge;
}

TEST(LoadGenTest, TemplatesSpanBothClasses) {
  std::vector<JobTemplate> Mixed = jobTemplates(MixKind::Mixed);
  ASSERT_FALSE(Mixed.empty());
  bool AnySmall = false, AnyLarge = false;
  for (const JobTemplate &T : Mixed) {
    EXPECT_FALSE(T.W.Calls.empty());
    (T.MaxGroups >= 64 ? AnyLarge : AnySmall) = true;
  }
  EXPECT_TRUE(AnySmall);
  EXPECT_TRUE(AnyLarge);
  for (const JobTemplate &T : jobTemplates(MixKind::Small))
    EXPECT_LT(T.MaxGroups, 64u);
  for (const JobTemplate &T : jobTemplates(MixKind::Large))
    EXPECT_GE(T.MaxGroups, 64u);
}

TEST(LoadGenTest, StreamDrawsAreDeterministicPerSeed) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Mixed);
  StreamGen A(42, 3, Templs), B(42, 3, Templs), C(43, 3, Templs);
  ArrivalSpec Spec;
  Spec.RatePerSec = 200;
  bool AnyDiffer = false;
  for (int I = 0; I < 32; ++I) {
    Duration Da = A.interarrival(Spec), Db = B.interarrival(Spec);
    EXPECT_EQ(Da.nanos(), Db.nanos());
    AnyDiffer |= Da.nanos() != C.interarrival(Spec).nanos();
  }
  EXPECT_TRUE(AnyDiffer);
  // Different streams under the same seed get different sequences.
  StreamGen S0(42, 0, Templs), S1(42, 1, Templs);
  EXPECT_NE(StreamGen::mixSeed(42, 0), StreamGen::mixSeed(42, 1));
  bool StreamsDiffer = false;
  for (int I = 0; I < 32 && !StreamsDiffer; ++I)
    StreamsDiffer =
        S0.interarrival(Spec).nanos() != S1.interarrival(Spec).nanos();
  EXPECT_TRUE(StreamsDiffer);
}

TEST(LoadGenTest, PipelineMixCarriesDagTemplates) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Pipeline);
  ASSERT_FALSE(Templs.empty());
  bool AnyDag = false, AnyPlain = false;
  for (const JobTemplate &T : Templs) {
    if (T.Dag) {
      AnyDag = true;
      // The precomputed graph must describe exactly this template.
      EXPECT_EQ(T.Dag->size(), T.W.Calls.size());
      EXPECT_GE(T.Dag->size(), 2u);
    } else {
      AnyPlain = true;
    }
  }
  EXPECT_TRUE(AnyDag);
  EXPECT_TRUE(AnyPlain);
  // The non-pipeline mixes never carry graphs.
  for (const JobTemplate &T : jobTemplates(MixKind::Mixed))
    EXPECT_EQ(T.Dag, nullptr);
}

TEST(ServeLoadGenTest, DrawOpenLoopReplaysStreamGen) {
  std::vector<JobTemplate> Templs = jobTemplates(MixKind::Mixed);
  const int Streams = 5;
  const Duration Horizon = Duration::milliseconds(50);
  const TimePoint End = TimePoint() + Horizon;
  for (ArrivalKind Kind : {ArrivalKind::Poisson, ArrivalKind::Uniform}) {
    ArrivalSpec Spec;
    Spec.Kind = Kind;
    Spec.RatePerSec = 400;
    std::vector<Arrival> Got = drawOpenLoop(9, Streams, Spec, Horizon, Templs);
    const char *Name = Kind == ArrivalKind::Uniform ? "uniform" : "poisson";
    EXPECT_GT(Got.size(), static_cast<size_t>(Streams) * 10) << Name;
    // Stream-major; each stream ascends and stays inside the window.
    for (size_t I = 0; I < Got.size(); ++I) {
      EXPECT_LE(Got[I].At, End) << Name;
      if (I == 0)
        continue;
      if (Got[I].Stream == Got[I - 1].Stream) {
        EXPECT_GE(Got[I].At, Got[I - 1].At) << Name;
      } else {
        EXPECT_EQ(Got[I].Stream, Got[I - 1].Stream + 1) << Name;
      }
    }
    // A uniform stream starts at its phase and then ticks at the rate.
    for (size_t I = 0; Kind == ArrivalKind::Uniform && I < Got.size(); ++I) {
      if (I == 0 || Got[I].Stream != Got[I - 1].Stream) {
        StreamGen G(9, Got[I].Stream, Templs);
        EXPECT_EQ(Got[I].At.nanos(), G.initialPhase(Spec).nanos());
      } else {
        EXPECT_EQ((Got[I].At - Got[I - 1].At).nanos(),
                  Duration::microseconds(2500).nanos());
      }
    }
    // The same RNG call order as a hand replay of each stream's generator:
    // the first interarrival (uniform: the phase), then per arrival its
    // template and the next interarrival.
    size_t Next = 0;
    for (int S = 0; S < Streams; ++S) {
      StreamGen G(9, S, Templs);
      Duration At = Kind == ArrivalKind::Uniform ? G.initialPhase(Spec)
                                                 : G.interarrival(Spec);
      for (; At <= Horizon; At += G.interarrival(Spec)) {
        ASSERT_LT(Next, Got.size()) << Name;
        const Arrival &A = Got[Next++];
        EXPECT_EQ(A.Stream, S) << Name;
        EXPECT_EQ(A.At.nanos(), (TimePoint() + At).nanos()) << Name;
        EXPECT_EQ(A.TemplateIdx, &G.pickTemplate() - Templs.data()) << Name;
      }
    }
    EXPECT_EQ(Next, Got.size()) << Name;
  }
}

TEST(LoadGenDeathTest, PickTemplateWithNoTemplatesFailsLoud) {
  // nextBelow(0) would be modulo-by-zero UB; the generator must abort with
  // a diagnostic instead of returning garbage.
  std::vector<JobTemplate> Empty;
  StreamGen G(1, 0, Empty);
  EXPECT_DEATH((void)G.pickTemplate(), "no job templates");
}

TEST(MetricsTest, LatencySummaryNearestRank) {
  std::vector<double> Vals;
  for (int I = 100; I >= 1; --I)
    Vals.push_back(static_cast<double>(I));
  LatencySummary S = summarizeLatency(Vals);
  EXPECT_DOUBLE_EQ(S.P50, 50);
  EXPECT_DOUBLE_EQ(S.P95, 95);
  EXPECT_DOUBLE_EQ(S.P99, 99);
  EXPECT_DOUBLE_EQ(S.Max, 100);
  EXPECT_DOUBLE_EQ(S.Mean, 50.5);
}

TEST(ServeEngineTest, SameSeedSameConfigByteIdenticalJson) {
  for (Policy P :
       {Policy::FifoExclusive, Policy::DeviceAffine, Policy::FluidicCorun}) {
    ServeReport A = runServe(baseConfig(P));
    ServeReport B = runServe(baseConfig(P));
    EXPECT_EQ(A.toJson(), B.toJson()) << "policy " << policyName(P);
    EXPECT_EQ(A.toCsv(), B.toCsv()) << "policy " << policyName(P);
  }
}

TEST(ServeEngineTest, SeedChangesTheRun) {
  ServeReport A = runServe(baseConfig(Policy::FluidicCorun, 7));
  ServeReport B = runServe(baseConfig(Policy::FluidicCorun, 8));
  EXPECT_NE(A.toJson(), B.toJson());
}

// The headline acceptance gate: on the mixed large/small workload at a
// saturating arrival rate, cooperative head-of-line execution with CPU
// backfill must beat whole-pair FIFO on BOTH p95 end-to-end latency and
// total makespan.
TEST(ServeEngineTest, CorunBeatsFifoOnP95AndMakespan) {
  ServeReport Fifo = runServe(baseConfig(Policy::FifoExclusive));
  ServeReport Corun = runServe(baseConfig(Policy::FluidicCorun));
  ASSERT_GT(Fifo.Completed, 0u);
  ASSERT_GT(Corun.Completed, 0u);
  EXPECT_LT(Corun.E2e.P95, Fifo.E2e.P95);
  EXPECT_LT(Corun.MakespanMs, Fifo.MakespanMs);
  // It wins while also completing at least as many requests - the latency
  // and makespan edge is not bought by shedding load.
  EXPECT_GE(Corun.Completed, Fifo.Completed);
}

TEST(ServeEngineTest, CorunUsesBackfillAndChunkYields) {
  ServeReport R = runServe(baseConfig(Policy::FluidicCorun));
  EXPECT_GT(R.CoopJobs, 0u);
  EXPECT_GT(R.BackfillJobs, 0u);
  EXPECT_GT(R.ChunkYields, 0u);
  EXPECT_GT(R.CorunCpuMs, 0);
  EXPECT_EQ(R.Completed, R.CoopJobs + R.GpuJobs + R.CpuJobs);
}

TEST(ServeEngineTest, FifoRunsEverythingAsPairs) {
  ServeReport R = runServe(baseConfig(Policy::FifoExclusive));
  EXPECT_EQ(R.Completed, R.CoopJobs);
  EXPECT_EQ(R.GpuJobs, 0u);
  EXPECT_EQ(R.CpuJobs, 0u);
  for (const RequestRecord &Req : R.Requests) {
    if (!Req.Rejected) {
      EXPECT_EQ(Req.Placement, "pair");
    }
  }
}

TEST(ServeEngineTest, AffinePinsByClass) {
  ServeReport R = runServe(baseConfig(Policy::DeviceAffine));
  EXPECT_EQ(R.CoopJobs, 0u);
  EXPECT_GT(R.GpuJobs, 0u);
  EXPECT_GT(R.CpuJobs, 0u);
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected)
      continue;
    EXPECT_EQ(Req.Placement, Req.Large ? "gpu" : "cpu")
        << "request " << Req.Id << " (" << Req.Workload << ")";
  }
}

TEST(ServeEngineTest, BoundedQueueRejectsUnderOverload) {
  EngineConfig Cfg = baseConfig(Policy::FifoExclusive);
  Cfg.QueueDepth = 4;
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Rejected, 0u);
  EXPECT_EQ(R.Submitted, R.Rejected + R.Completed);
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected) {
      EXPECT_EQ(Req.Placement, "rejected");
    }
  }
}

TEST(ServeEngineTest, ClosedLoopHonorsOneOutstandingPerStream) {
  EngineConfig Cfg = baseConfig(Policy::DeviceAffine);
  Cfg.Arrival.Kind = ArrivalKind::Closed;
  Cfg.Arrival.Think = Duration::milliseconds(1);
  Cfg.Streams = 4;
  // A stream's next request arrives only once its previous one has ended,
  // or been rejected. Request ids follow each stream's order.
  auto ExpectOneOutstanding = [](const ServeReport &R) {
    std::vector<const RequestRecord *> Prev(R.Streams, nullptr);
    for (const RequestRecord &Req : R.Requests) {
      if (const RequestRecord *P = Prev[Req.Stream]) {
        EXPECT_GE(Req.ArrivalAt, P->Rejected ? P->ArrivalAt : P->EndAt)
            << "request " << Req.Id << " of stream " << Req.Stream;
      }
      Prev[Req.Stream] = &Req;
    }
  };
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Completed, 0u);
  // One outstanding request per stream can never overflow a queue as deep
  // as the stream count.
  EXPECT_EQ(R.Rejected, 0u);
  ExpectOneOutstanding(R);
  // Latency decomposition must be internally consistent.
  for (const RequestRecord &Req : R.Requests) {
    if (Req.Rejected)
      continue;
    EXPECT_GE(Req.queueWaitMs(), 0);
    EXPECT_GT(Req.serviceMs(), 0);
    EXPECT_NEAR(Req.e2eMs(), Req.queueWaitMs() + Req.serviceMs(), 1e-9);
  }
  // A queue shallower than the stream count sheds requests; each stream
  // still waits for its rejected request before sending the next.
  Cfg.QueueDepth = 1;
  ServeReport Shed = runServe(Cfg);
  EXPECT_GT(Shed.Rejected, 0u);
  ExpectOneOutstanding(Shed);
}

TEST(ServeEngineTest, SloViolationsCounted) {
  EngineConfig Cfg = baseConfig(Policy::FifoExclusive);
  Cfg.SloMs = 0.001; // Impossible: every completed request violates.
  ServeReport R = runServe(Cfg);
  EXPECT_TRUE(R.SloChecked);
  EXPECT_EQ(R.SloViolations, R.Completed);
  Cfg.SloMs = 1e6; // Trivially satisfied.
  ServeReport Ok = runServe(Cfg);
  EXPECT_TRUE(Ok.SloChecked);
  EXPECT_EQ(Ok.SloViolations, 0u);
}

TEST(ServeEngineTest, FunctionalValidationPassesUnderAllPolicies) {
  for (Policy P :
       {Policy::FifoExclusive, Policy::DeviceAffine, Policy::FluidicCorun}) {
    EngineConfig Cfg = baseConfig(P, 3);
    Cfg.Mode = mcl::ExecMode::Functional;
    Cfg.Validate = true;
    Cfg.Streams = 4;
    Cfg.Arrival.RatePerSec = 200;
    Cfg.Horizon = Duration::milliseconds(50);
    ServeReport R = runServe(Cfg);
    EXPECT_GT(R.Completed, 0u) << "policy " << policyName(P);
    EXPECT_TRUE(R.Validated);
    EXPECT_EQ(R.ValidationFailures, 0u) << "policy " << policyName(P);
  }
}

TEST(ServeEngineTest, TracerGetsServeLanes) {
  trace::Tracer T;
  EngineConfig Cfg = baseConfig(Policy::FluidicCorun);
  Cfg.Horizon = Duration::milliseconds(30);
  Cfg.Tracer = &T;
  ServeReport R = runServe(Cfg);
  EXPECT_GT(R.Completed, 0u);
  EXPECT_GT(T.size(), 0u);
  EXPECT_FALSE(T.counterSamples().empty());
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("Serve GPU"), std::string::npos);
  EXPECT_NE(Json.find("Serve queue depth"), std::string::npos);
}

TEST(ServeEngineTest, ReportJsonCarriesSchemaAndConfigEcho) {
  ServeReport R = runServe(baseConfig(Policy::FluidicCorun));
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("fcl-serve-report-v1"), std::string::npos);
  EXPECT_NE(Json.find("\"policy\": \"corun\""), std::string::npos);
  EXPECT_NE(Json.find("\"machine\": \"paper\""), std::string::npos);
  EXPECT_NE(Json.find("serve_completed"), std::string::npos);
}

} // namespace

TEST(ServeEngineTest, FinishedExecutorsAreRetiredOnceQuiescent) {
  // An engine driven from outside in 1 ms epochs through a few thousand corun
  // jobs, offered faster than the pair drains them. Between epochs it must
  // hold only the running jobs' executors plus the few finished ones whose
  // trailing work has not yet drained - not one per completed job.
  EngineConfig Cfg = baseConfig(Policy::FluidicCorun);
  Cfg.QueueDepth = 100000;
  Engine E(Cfg);
  uint64_t Completed = 0;
  E.setOutcomeFn([&Completed](const JobOutcome &O) {
    if (!O.Rejected)
      ++Completed;
  });
  const int Jobs = 3000;
  const int NumTemplates = static_cast<int>(E.templates().size());
  for (int I = 0; I < Jobs; ++I)
    E.injectJob(static_cast<uint64_t>(I), I % NumTemplates, I % 8,
                TimePoint() + Duration::microseconds(100) * I);
  size_t MaxLive = 0;
  TimePoint Epoch;
  for (int Step = 0; Step < 100000 && !E.quiescent(); ++Step) {
    Epoch = Epoch + Duration::milliseconds(1);
    E.advanceTo(Epoch);
    MaxLive = std::max(MaxLive, E.liveExecutors());
  }
  ASSERT_TRUE(E.quiescent());
  EXPECT_EQ(Completed, static_cast<uint64_t>(Jobs));
  EXPECT_LE(MaxLive, 8u);
  ServeReport R = E.finish();
  EXPECT_EQ(R.Completed, static_cast<uint64_t>(Jobs));
  EXPECT_EQ(E.liveExecutors(), 0u);
}

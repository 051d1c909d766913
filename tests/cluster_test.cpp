//===- tests/cluster_test.cpp - fcl::cluster unit tests -------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "race/Race.h"

#include <atomic>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <thread>

using namespace fcl;
using namespace fcl::cluster;

namespace {

ClusterConfig baseConfig(int Workers) {
  ClusterConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.Place = Placement::LeastLoaded;
  Cfg.Steal = true;
  Cfg.Worker.Streams = 8;
  Cfg.Worker.Arrival = serve::ArrivalSpec{serve::ArrivalKind::Poisson, 300,
                                          Duration::milliseconds(5)};
  Cfg.Worker.Horizon = Duration::milliseconds(40);
  Cfg.Worker.Seed = 11;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// EpochBarrier protocol
//===----------------------------------------------------------------------===//

TEST(EpochBarrierTest, LockstepEpochsAndShutdown) {
  const int N = 4;
  const uint64_t Epochs = 50;
  EpochBarrier B(N);
  std::atomic<uint64_t> Sum{0};
  std::vector<std::thread> Ts;
  for (int I = 0; I < N; ++I)
    Ts.emplace_back([&] {
      uint64_t Seen = 0;
      uint64_t E = 0;
      while (B.awaitEpoch(Seen, E)) {
        // Epochs must arrive in order, none skipped: the barrier parks us
        // before each release, so every worker sees every epoch.
        EXPECT_EQ(E, Seen + 1);
        Seen = E;
        Sum.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (uint64_t E = 1; E <= Epochs; ++E) {
    B.masterAwaitParked();
    B.releaseEpoch(E);
  }
  B.masterAwaitParked();
  B.stopAll();
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Sum.load(), Epochs * N);
}

//===----------------------------------------------------------------------===//
// Cluster runs
//===----------------------------------------------------------------------===//

TEST(ClusterTest, ConservesEveryJob) {
  Cluster C(baseConfig(3));
  ClusterReport R = C.run();
  EXPECT_GT(R.Submitted, 0u);
  EXPECT_EQ(R.Submitted, R.Completed + R.Rejected);
  EXPECT_EQ(R.Jobs.size(), R.Submitted);
  uint64_t PerWorkerCompleted = 0, PerWorkerAssigned = 0;
  for (const WorkerSummary &W : R.PerWorker) {
    PerWorkerCompleted += W.Completed;
    PerWorkerAssigned += W.Assigned;
  }
  EXPECT_EQ(PerWorkerCompleted, R.Completed);
  EXPECT_EQ(PerWorkerAssigned, R.Submitted);
  for (const ClusterJobRecord &J : R.Jobs) {
    EXPECT_TRUE(J.Done || J.Rejected);
    EXPECT_GE(J.FirstWorker, 0);
    EXPECT_LT(J.Worker, 3);
    if (J.Done) {
      EXPECT_GE(J.StartAt, J.ArrivalAt);
      EXPECT_GE(J.EndAt, J.StartAt);
    }
    // A job lands on a different worker than its first placement exactly
    // when the master stole it.
    EXPECT_EQ(J.FirstWorker != J.Worker, J.Stolen);
  }
}

// One worker is one serve engine: with one run loop at a time and no
// clock rewinds, serving a load through fluidicl_serve's engine and
// through a one-worker cluster (epoch-stepped, arrivals injected by the
// master) gives the same schedule.
TEST(ClusterTest, OneWorkerMatchesServe) {
  struct Shape {
    serve::Policy P;
    serve::MixKind Mix;
  };
  for (Shape S : {Shape{serve::Policy::FluidicCorun, serve::MixKind::Mixed},
                  Shape{serve::Policy::DeviceAffine, serve::MixKind::Mixed},
                  Shape{serve::Policy::FluidicCorun, serve::MixKind::Pipeline},
                  Shape{serve::Policy::FifoExclusive, serve::MixKind::Mixed},
                  Shape{serve::Policy::FluidicCorun, serve::MixKind::Large}}) {
    serve::EngineConfig EC;
    EC.P = S.P;
    EC.Mix = S.Mix;
    EC.Streams = 16;
    EC.Arrival.Kind = serve::ArrivalKind::Poisson;
    EC.Arrival.RatePerSec = 150;
    EC.QueueDepth = 256;
    EC.Horizon = Duration::milliseconds(250);
    EC.Seed = 7;
    serve::ServeReport Serve = serve::Engine(EC).run();
    ClusterConfig CC;
    CC.Workers = 1;
    CC.Worker = EC;
    ClusterReport Clu = Cluster(CC).run();
    std::string Where = std::string(serve::policyName(S.P)) + " x " +
                        serve::mixName(S.Mix);
    EXPECT_EQ(Serve.Submitted, Clu.Submitted) << Where;
    EXPECT_EQ(Serve.Rejected, Clu.Rejected) << Where;
    EXPECT_EQ(Serve.Completed, Clu.Completed) << Where;
    EXPECT_NEAR(Serve.MakespanMs, Clu.MakespanMs, 1e-9) << Where;
    auto Same = [&](const serve::LatencySummary &A,
                    const serve::LatencySummary &B, const char *What) {
      EXPECT_NEAR(A.P50, B.P50, 1e-9) << Where << " " << What;
      EXPECT_NEAR(A.P95, B.P95, 1e-9) << Where << " " << What;
      EXPECT_NEAR(A.P99, B.P99, 1e-9) << Where << " " << What;
      EXPECT_NEAR(A.Mean, B.Mean, 1e-9) << Where << " " << What;
      EXPECT_NEAR(A.Max, B.Max, 1e-9) << Where << " " << What;
    };
    Same(Serve.QueueWait, Clu.QueueWait, "queue wait");
    Same(Serve.Service, Clu.Service, "service");
    Same(Serve.E2e, Clu.E2e, "e2e");
  }
}

TEST(ClusterTest, SameSeedSameBytesAcrossRuns) {
  for (int Workers : {1, 2, 4}) {
    std::string A = Cluster(baseConfig(Workers)).run().toJson();
    std::string B = Cluster(baseConfig(Workers)).run().toJson();
    EXPECT_EQ(A, B) << "workers=" << Workers;
    EXPECT_NE(A.find("\"fcl-cluster-report-v1\""), std::string::npos);
  }
}

TEST(ClusterTest, HashAffinePinsStreamsToWorkers) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine;
  Cfg.Steal = false;
  ClusterReport R = Cluster(Cfg).run();
  // Every job of a stream must go to one worker, and with 8 streams over
  // 4 workers at least two workers must be in use.
  std::map<int, int> StreamWorker;
  for (const ClusterJobRecord &J : R.Jobs) {
    auto It = StreamWorker.find(J.Stream);
    if (It == StreamWorker.end())
      StreamWorker[J.Stream] = J.FirstWorker;
    else
      EXPECT_EQ(It->second, J.FirstWorker) << "stream " << J.Stream;
  }
  std::set<int> Used;
  for (const auto &[S, W] : StreamWorker)
    Used.insert(W);
  EXPECT_GE(Used.size(), 2u);
  EXPECT_EQ(R.Stolen, 0u);
}

TEST(ClusterTest, LeastLoadedSpreadsAssignments) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::LeastLoaded;
  ClusterReport R = Cluster(Cfg).run();
  for (const WorkerSummary &W : R.PerWorker)
    EXPECT_GT(W.Assigned, 0u) << "worker " << W.Index << " never used";
}

TEST(ClusterTest, StealingRebalancesSkewedPlacement) {
  // Hash placement over 4 workers with 16 streams leaves some pairs idle
  // while others queue deep; stealing must move jobs and the books must
  // still balance.
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine;
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  ClusterReport R = Cluster(Cfg).run();
  EXPECT_GT(R.Steals, 0u);
  EXPECT_GT(R.RebalanceEpochs, 0u);
  EXPECT_EQ(R.Submitted, R.Completed + R.Rejected);
  uint64_t StolenJobs = 0, StolenIn = 0, StolenOut = 0;
  for (const ClusterJobRecord &J : R.Jobs)
    if (J.Stolen)
      ++StolenJobs;
  for (const WorkerSummary &W : R.PerWorker) {
    StolenIn += W.StolenIn;
    StolenOut += W.StolenOut;
  }
  EXPECT_EQ(StolenJobs, R.Steals);
  EXPECT_EQ(StolenIn, R.Steals);
  EXPECT_EQ(StolenOut, R.Steals);
}

TEST(ClusterTest, ScalesThroughputAcrossWorkers) {
  // The headline claim, in miniature: 4 pairs under least-loaded +
  // stealing sustain >= 3x the completed-jobs throughput of 1 pair on a
  // saturating mixed load.
  ClusterConfig Cfg = baseConfig(1);
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  Cfg.Worker.Seed = 7;
  ClusterReport R1 = Cluster(Cfg).run();
  Cfg.Workers = 4;
  ClusterReport R4 = Cluster(Cfg).run();
  ASSERT_GT(R1.ThroughputJps, 0.0);
  EXPECT_GE(R4.ThroughputJps, 3.0 * R1.ThroughputJps);
  EXPECT_LE(R4.E2e.P95, R1.E2e.P95);
}

TEST(ClusterTest, TraceMergesWorkerLanes) {
  trace::Tracer T;
  ClusterConfig Cfg = baseConfig(2);
  Cfg.Worker.Tracer = &T;
  ClusterReport R = Cluster(Cfg).run();
  EXPECT_GT(R.Completed, 0u);
  EXPECT_GT(T.size(), 0u);
  bool SawW0 = false, SawW1 = false;
  for (const trace::TraceEvent &E : T.events()) {
    SawW0 = SawW0 || E.Lane.rfind("w0 ", 0) == 0;
    SawW1 = SawW1 || E.Lane.rfind("w1 ", 0) == 0;
  }
  EXPECT_TRUE(SawW0);
  EXPECT_TRUE(SawW1);
}

//===----------------------------------------------------------------------===//
// Race-analyzer integration over the threaded fabric
//===----------------------------------------------------------------------===//

TEST(RaceClusterTest, ThreadedFabricAnalyzesClean) {
  ClusterConfig Cfg = baseConfig(4);
  Cfg.Place = Placement::HashAffine; // Forces steals -> cross-pair edges.
  Cfg.Worker.Streams = 16;
  Cfg.Worker.Arrival.RatePerSec = 600;
  std::string Plain = Cluster(Cfg).run().toJson();
  Cfg.Worker.Races = check::Policy::Fail;
  ClusterReport Armed = Cluster(Cfg).run();
  EXPECT_EQ(Armed.RaceFindings, 0u)
      << (Armed.RaceDiags.empty() ? "" : Armed.RaceDiags.front());
  EXPECT_TRUE(Armed.RacesEnabled);
  // The analyzer observes; it must never perturb the simulated outcome.
  EXPECT_EQ(Plain, Armed.toJson());
  EXPECT_FALSE(race::Analyzer::enabled());
}

} // namespace

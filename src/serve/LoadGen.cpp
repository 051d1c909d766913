//===- serve/LoadGen.cpp - Synthetic multi-stream load generation ---------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/LoadGen.h"

#include "dag/Pipelines.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>

using namespace fcl;
using namespace fcl::serve;

std::string ArrivalSpec::str() const {
  switch (Kind) {
  case ArrivalKind::Poisson:
    return formatString("poisson:%g", RatePerSec);
  case ArrivalKind::Uniform:
    return formatString("uniform:%g", RatePerSec);
  case ArrivalKind::Closed:
    return formatString("closed:%g", Think.toMillis());
  }
  return "?";
}

bool fcl::serve::parseArrivalSpec(const std::string &Spec, ArrivalSpec &Out,
                                  std::string &Err) {
  size_t Colon = Spec.find(':');
  std::string Kind = Spec.substr(0, Colon);
  double Value = 0;
  if (Colon != std::string::npos) {
    try {
      Value = std::stod(Spec.substr(Colon + 1));
    } catch (...) {
      Err = "malformed arrival value in '" + Spec + "'";
      return false;
    }
  }
  if (!(Value > 0) || !std::isfinite(Value)) {
    Err = "arrival spec '" + Spec + "' needs a positive, finite value";
    return false;
  }
  // A stream's mean interval between requests must lie in [1 us, 1e6 s]:
  // shorter ones pre-draw arrivals without bound (the fastest rate in use is
  // 2000/s), longer ones overflow simulated time.
  if (Kind == "poisson" || Kind == "uniform") {
    if (Value < 1e-6 || Value > 1e6) {
      Err = "arrival spec '" + Spec +
            "' needs a rate in [1e-06, 1e+06] per second";
      return false;
    }
    Out.Kind = Kind == "poisson" ? ArrivalKind::Poisson : ArrivalKind::Uniform;
    Out.RatePerSec = Value;
    return true;
  }
  if (Kind == "closed") {
    if (Value < 1e-3 || Value > 1e9) {
      Err = "arrival spec '" + Spec +
            "' needs a think time in [0.001, 1e+09] ms";
      return false;
    }
    Out.Kind = ArrivalKind::Closed;
    Out.Think = Duration::seconds(Value / 1e3);
    return true;
  }
  Err = "unknown arrival kind '" + Kind + "' (poisson|uniform|closed)";
  return false;
}

bool fcl::serve::parseMix(const std::string &Name, MixKind &Out) {
  if (Name == "mixed") {
    Out = MixKind::Mixed;
    return true;
  }
  if (Name == "small") {
    Out = MixKind::Small;
    return true;
  }
  if (Name == "large") {
    Out = MixKind::Large;
    return true;
  }
  if (Name == "pipeline") {
    Out = MixKind::Pipeline;
    return true;
  }
  return false;
}

const char *fcl::serve::mixName(MixKind M) {
  switch (M) {
  case MixKind::Mixed:
    return "mixed";
  case MixKind::Small:
    return "small";
  case MixKind::Large:
    return "large";
  case MixKind::Pipeline:
    return "pipeline";
  }
  return "?";
}

std::vector<JobTemplate> fcl::serve::jobTemplates(MixKind Mix) {
  auto Entry = [](work::Workload W) {
    JobTemplate T;
    uint64_t Max = 0;
    for (uint64_t G : W.groupCounts())
      Max = std::max(Max, G);
    T.MaxGroups = Max;
    T.W = std::move(W);
    return T;
  };
  // Small: latency-sensitive lookups of a few work-groups. Large: matrix
  // kernels with hundreds of work-groups that profit from cooperative
  // CPU+GPU execution.
  std::vector<JobTemplate> Small = {
      Entry(work::makeGesummv(256)),
      Entry(work::makeAtax(256, 256)),
      Entry(work::makeMvt(256)),
      Entry(work::makeBicg(256, 256)),
  };
  std::vector<JobTemplate> Large = {
      Entry(work::makeSyrk(256, 256)),
      Entry(work::makeSyr2k(192, 192)),
      Entry(work::makeGemm(256, 256, 256)),
  };
  // Compound jobs: the workload's launches become a dependence graph the
  // DAG executor runs across both devices at once.
  auto DagEntry = [&Entry](work::Workload W) {
    JobTemplate T = Entry(std::move(W));
    T.Dag = std::make_shared<const dag::Graph>(dag::Graph::fromWorkload(T.W));
    return T;
  };
  std::vector<JobTemplate> Out;
  switch (Mix) {
  case MixKind::Small:
    return Small;
  case MixKind::Large:
    return Large;
  case MixKind::Mixed:
    // Duplicated small entries weight the uniform template draw roughly
    // 70/30 towards small jobs (a heavy-tailed production mix).
    for (int Rep = 0; Rep < 2; ++Rep)
      for (const JobTemplate &T : Small)
        Out.push_back(T);
    for (const JobTemplate &T : Large)
      Out.push_back(T);
    return Out;
  case MixKind::Pipeline:
    // Multi-kernel DAG shapes (fan-out, chains, fan-in, diamond) plus two
    // plain single-kernel templates so the cooperative and single-device
    // paths keep running in the same load.
    Out = {
        DagEntry(work::makeBicg(192, 192)),   // Two independent kernels.
        DagEntry(work::make2mm(64)),          // Chain.
        DagEntry(work::make3mm(64)),          // Fan-in.
        DagEntry(work::makeCovar(96, 96)),    // Chain with InOut centering.
        DagEntry(dag::makeDiamond(64)),       // Fan-out then fan-in.
        DagEntry(dag::makeFanout(64, 3)),     // One producer, 3 branches.
        Entry(work::makeGesummv(256)),
        Entry(work::makeAtax(256, 256)),
    };
    return Out;
  }
  FCL_FATAL("unknown mix");
}

uint64_t StreamGen::mixSeed(uint64_t Seed, int Stream) {
  // splitmix-style mix so per-stream sequences are unrelated even for
  // adjacent seeds / stream indices.
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull *
                          (static_cast<uint64_t>(Stream) + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

Duration StreamGen::interarrival(const ArrivalSpec &A) {
  switch (A.Kind) {
  case ArrivalKind::Poisson: {
    // Exponential via inverse transform; 1 - U avoids log(0).
    double U = R.nextDouble();
    return Duration::seconds(-std::log(1.0 - U) / A.RatePerSec);
  }
  case ArrivalKind::Uniform:
    return Duration::seconds(1.0 / A.RatePerSec);
  case ArrivalKind::Closed:
    return think(A);
  }
  FCL_FATAL("unknown arrival kind");
}

Duration StreamGen::think(const ArrivalSpec &A) {
  double U = R.nextDouble();
  return Duration::seconds(-std::log(1.0 - U) * A.Think.toSeconds());
}

Duration StreamGen::initialPhase(const ArrivalSpec &A) {
  double Window = A.Kind == ArrivalKind::Closed
                      ? A.Think.toSeconds()
                      : 1.0 / A.RatePerSec;
  return Duration::seconds(R.nextDouble() * Window);
}

std::vector<Arrival>
fcl::serve::drawOpenLoop(uint64_t Seed, int Streams, const ArrivalSpec &A,
                         Duration Horizon,
                         const std::vector<JobTemplate> &Templates) {
  std::vector<Arrival> Out;
  for (int S = 0; S < Streams; ++S) {
    StreamGen G(Seed, S, Templates);
    Duration At = A.Kind == ArrivalKind::Uniform ? G.initialPhase(A)
                                                 : G.interarrival(A);
    while (At <= Horizon) {
      const JobTemplate &T = G.pickTemplate();
      Out.push_back({TimePoint() + At, S,
                     static_cast<int>(&T - Templates.data())});
      At += G.interarrival(A);
    }
  }
  return Out;
}

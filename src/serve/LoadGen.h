//===- serve/LoadGen.h - Synthetic multi-stream load generation -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded synthetic load for the serving layer: a set of job templates
/// (small and large Polybench applications from work::Workload) and the
/// arrival processes that submit them. Every draw comes from a per-stream
/// fcl::Rng, so the generated load is a pure function of (seed, stream) -
/// this is what makes whole serve runs byte-reproducible.
///
/// Arrival models:
///  * open-loop Poisson  - exponential interarrivals at a given rate; the
///    stream does not wait for responses (models independent clients).
///  * open-loop uniform  - fixed interarrivals at a given rate, with a
///    random initial phase so streams do not arrive in lockstep.
///  * closed-loop        - each stream has one job outstanding and thinks
///    (exponentially distributed) between response and next request.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_LOADGEN_H
#define FCL_SERVE_LOADGEN_H

#include "dag/Graph.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "support/SimTime.h"
#include "work/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace fcl {
namespace serve {

enum class ArrivalKind { Poisson, Uniform, Closed };

struct ArrivalSpec {
  ArrivalKind Kind = ArrivalKind::Poisson;
  /// Per-stream request rate (open-loop kinds), requests/second.
  double RatePerSec = 50;
  /// Mean think time between response and next request (closed loop).
  Duration Think = Duration::milliseconds(5);

  std::string str() const;
};

/// Parses "poisson:<rps>", "uniform:<rps>" or "closed:<think-ms>"; returns
/// false (and fills \p Err) for malformed specs and for values whose
/// interval between requests (1/rps, or the think time) lies outside
/// [1 us, 1e6 s].
bool parseArrivalSpec(const std::string &Spec, ArrivalSpec &Out,
                      std::string &Err);

/// Which job sizes a run draws from. Pipeline adds compound multi-kernel
/// DAG jobs (BICG, chained GEMMs, COVAR, synthetic diamond/fan-out) to a
/// base of single-kernel jobs.
enum class MixKind { Mixed, Small, Large, Pipeline };

bool parseMix(const std::string &Name, MixKind &Out);
const char *mixName(MixKind M);

/// One admissible job type: a workload template plus its size metric.
struct JobTemplate {
  work::Workload W;
  /// max over the workload's launches of the flattened work-group count;
  /// policies compare this against their small/large threshold.
  uint64_t MaxGroups = 0;
  /// Non-null for compound jobs: the precomputed kernel dependence graph,
  /// executed by dag::DagJobExec over both devices at once. Shared because
  /// every job instantiated from the template uses the same graph.
  std::shared_ptr<const dag::Graph> Dag;
};

/// The fixed template table for \p Mix. Small templates are a few hundred
/// work-items (latency-sensitive lookups); large ones are matrix kernels
/// with hundreds of work-groups (batch analytics). Deterministic: no RNG.
std::vector<JobTemplate> jobTemplates(MixKind Mix);

/// Per-stream deterministic generator: template choices and timing draws.
class StreamGen {
public:
  StreamGen(uint64_t Seed, int Stream, const std::vector<JobTemplate> &Templs)
      : R(mixSeed(Seed, Stream)), Templates(&Templs) {}

  /// Next job template for this stream (uniform over the table).
  const JobTemplate &pickTemplate() {
    // nextBelow(0) would be a modulo-by-zero; fail loud instead of UB.
    FCL_CHECK(!Templates->empty(),
              "stream has no job templates to draw from");
    return (*Templates)[R.nextBelow(Templates->size())];
  }

  /// Next open-loop interarrival / closed-loop think draw.
  Duration interarrival(const ArrivalSpec &A);
  Duration think(const ArrivalSpec &A);
  /// Initial phase offset so streams do not start in lockstep.
  Duration initialPhase(const ArrivalSpec &A);

  static uint64_t mixSeed(uint64_t Seed, int Stream);

private:
  Rng R;
  const std::vector<JobTemplate> *Templates;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_LOADGEN_H

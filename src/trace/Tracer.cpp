//===- trace/Tracer.cpp - Execution tracing ---------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Tracer.h"

#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <map>

using namespace fcl;
using namespace fcl::trace;

static prof::Counter ProfRecords("trace.records");

Tracer::Tracer() {
  static std::atomic<uint64_t> NextRaceId{0};
  RaceSec = "trace.tracer#" +
            std::to_string(NextRaceId.fetch_add(1, std::memory_order_relaxed));
}

void Tracer::record(std::string Lane, std::string Name, TimePoint Start,
                    TimePoint End, std::string Detail) {
  FCL_PROF_SCOPE("trace.record");
  race::Section RaceS(RaceSec);
  ProfRecords.add();
  FCL_CHECK(End >= Start, "trace slice ends before it starts");
  TraceEvent E;
  E.Lane = std::move(Lane);
  E.Name = std::move(Name);
  E.Detail = std::move(Detail);
  E.Start = Start;
  E.End = End;
  Events.push_back(std::move(E));
}

void Tracer::counter(std::string Track, TimePoint At, double Value) {
  race::Section RaceS(RaceSec);
  CounterSample S;
  S.Track = std::move(Track);
  S.At = At;
  S.Value = Value;
  Counters.push_back(std::move(S));
}

void Tracer::mergeFrom(const Tracer &Other, const std::string &Prefix) {
  // Merging a tracer into itself would iterate Events/Counters while
  // record()/counter() append to them - iterator invalidation, then an
  // unbounded loop. No caller can mean it; fail loud.
  FCL_CHECK(&Other != this, "cannot merge a tracer into itself");
  for (const TraceEvent &E : Other.Events)
    record(Prefix + E.Lane, E.Name, E.Start, E.End, E.Detail);
  for (const CounterSample &C : Other.Counters)
    counter(Prefix + C.Track, C.At, C.Value);
}

std::vector<TraceEvent> Tracer::laneEvents(const std::string &Lane) const {
  std::vector<TraceEvent> Out;
  for (const TraceEvent &E : Events)
    if (E.Lane == Lane)
      Out.push_back(E);
  return Out;
}

std::vector<CounterSample> Tracer::trackSamples(const std::string &Track) const {
  std::vector<CounterSample> Out;
  for (const CounterSample &S : Counters)
    if (S.Track == Track)
      Out.push_back(S);
  return Out;
}

Duration Tracer::laneBusy(const std::string &Lane) const {
  Duration Busy = Duration::zero();
  for (const TraceEvent &E : Events)
    if (E.Lane == Lane)
      Busy += E.duration();
  return Busy;
}

void Tracer::annotateProfile(const prof::Snapshot &S) {
  // Sample every track at the current end of the timeline: phase totals
  // are whole-run aggregates, so one terminal sample per track renders as
  // a flat value beside the lanes.
  TimePoint At;
  for (const TraceEvent &E : Events)
    At = std::max(At, E.End);
  for (const CounterSample &C : Counters)
    At = std::max(At, C.At);
  for (const prof::PhaseStats &P : S.Phases)
    counter("prof " + P.Path + " self ms", At, P.exclusiveMs());
  for (const auto &[Name, V] : S.Counters)
    counter("prof counter " + Name, At, static_cast<double>(V));
}

std::string Tracer::renderChromeTrace() const {
  FCL_PROF_SCOPE("trace.render");
  // Stable lane -> tid mapping in first-appearance order.
  std::map<std::string, int> LaneIds;
  std::vector<std::string> LaneOrder;
  for (const TraceEvent &E : Events)
    if (LaneIds.emplace(E.Lane, static_cast<int>(LaneIds.size())).second)
      LaneOrder.push_back(E.Lane);

  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;
  for (const std::string &Lane : LaneOrder) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += formatString("{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                        "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                        LaneIds[Lane], jsonEscape(Lane).c_str());
  }
  for (const TraceEvent &E : Events) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += formatString(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"detail\":\"%s\"}}",
        LaneIds[E.Lane], jsonEscape(E.Name).c_str(),
        static_cast<double>(E.Start.nanos()) / 1000.0,
        static_cast<double>(E.duration().nanos()) / 1000.0,
        jsonEscape(E.Detail).c_str());
  }
  // Counter tracks: Perfetto groups "C" events of the same pid/name into one
  // step-function track beside the slice lanes.
  for (const CounterSample &S : Counters) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += formatString("{\"ph\":\"C\",\"pid\":1,\"name\":\"%s\","
                        "\"ts\":%.3f,\"args\":{\"value\":%g}}",
                        jsonEscape(S.Track).c_str(),
                        static_cast<double>(S.At.nanos()) / 1000.0, S.Value);
  }
  Out += "\n]}\n";
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  return writeFile(Path, renderChromeTrace());
}

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
#include <charconv>
#include <cstdio>

using namespace fcl;
using namespace fcl::trace;
using namespace std::string_view_literals;

static prof::Counter ProfRecords("trace.records");

uint32_t Tracer::NameTable::intern(std::string_view Name) {
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  Ids.emplace(Names.back(), Id);
  return Id;
}

uint32_t Tracer::NameTable::find(std::string_view Name) const {
  auto It = Ids.find(Name);
  return It == Ids.end() ? None : It->second;
}

Tracer::Tracer() {
  static std::atomic<uint64_t> NextRaceId{0};
  RaceSec = "trace.tracer#" +
            std::to_string(NextRaceId.fetch_add(1, std::memory_order_relaxed));
}

void Tracer::record(std::string_view Lane, std::string_view Name,
                    TimePoint Start, TimePoint End, std::string_view Detail) {
  FCL_PROF_SCOPE("trace.record");
  race::Section RaceS(RaceSec);
  ProfRecords.add();
  FCL_CHECK(End >= Start, "trace slice ends before it starts");
  FCL_CHECK(Name.size() <= UINT32_MAX && Detail.size() <= UINT32_MAX,
            "trace slice name or detail too long");
  // Copy the text before interning: a new lane grows the name table, which
  // Name or Detail may view (a lane name passed as a slice name).
  size_t TextAt = Text.size();
  Text += Name;
  Text += Detail;
  Slices.push_back({Start, End, TextAt, static_cast<uint32_t>(Name.size()),
                    static_cast<uint32_t>(Detail.size()), Lanes.intern(Lane)});
}

void Tracer::counter(std::string_view Track, TimePoint At, double Value) {
  race::Section RaceS(RaceSec);
  Samples.push_back({Tracks.intern(Track), At, Value});
}

void Tracer::mergeFrom(const Tracer &Other, std::string_view Prefix) {
  // Merging a tracer into itself would read Other's records while they
  // grow. No caller can mean it; fail loud.
  FCL_CHECK(&Other != this, "cannot merge a tracer into itself");
  FCL_PROF_SCOPE("trace.record");
  race::Section RaceS(RaceSec);
  ProfRecords.add(Other.Slices.size());
  // Other's names are in first-appearance order, so interning their
  // prefixed forms in that order keeps the merged tids in the order the
  // appended slices first use them.
  std::string Prefixed(Prefix);
  auto Remap = [&](const NameTable &From, NameTable &To) {
    std::vector<uint32_t> Ids;
    Ids.reserve(From.Names.size());
    for (const std::string &Name : From.Names) {
      Prefixed.resize(Prefix.size());
      Prefixed += Name;
      Ids.push_back(To.intern(Prefixed));
    }
    return Ids;
  };
  std::vector<uint32_t> LaneIds = Remap(Other.Lanes, Lanes);
  std::vector<uint32_t> TrackIds = Remap(Other.Tracks, Tracks);
  size_t TextBase = Text.size();
  Text += Other.Text;
  for (Slice S : Other.Slices) {
    S.TextAt += TextBase;
    S.Lane = LaneIds[S.Lane];
    Slices.push_back(S);
  }
  for (Sample S : Other.Samples) {
    S.Track = TrackIds[S.Track];
    Samples.push_back(S);
  }
}

void Tracer::clear() {
  Slices.clear();
  Samples.clear();
  Text.clear();
  Lanes = {};
  Tracks = {};
}

TraceEvent Tracer::event(const Slice &S) const {
  std::string_view All(Text);
  return {Lanes.Names[S.Lane], std::string(All.substr(S.TextAt, S.NameLen)),
          std::string(All.substr(S.TextAt + S.NameLen, S.DetailLen)), S.Start,
          S.End};
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> Out;
  Out.reserve(Slices.size());
  for (const Slice &S : Slices)
    Out.push_back(event(S));
  return Out;
}

std::vector<TraceEvent> Tracer::laneEvents(const std::string &Lane) const {
  std::vector<TraceEvent> Out;
  uint32_t Id = Lanes.find(Lane);
  for (const Slice &S : Slices)
    if (S.Lane == Id)
      Out.push_back(event(S));
  return Out;
}

std::vector<CounterSample> Tracer::trackSamples(const std::string &Track) const {
  std::vector<CounterSample> Out;
  uint32_t Id = Tracks.find(Track);
  for (const Sample &S : Samples)
    if (S.Track == Id)
      Out.push_back({Track, S.At, S.Value});
  return Out;
}

Duration Tracer::laneBusy(const std::string &Lane) const {
  Duration Busy = Duration::zero();
  uint32_t Id = Lanes.find(Lane);
  for (const Slice &S : Slices)
    if (S.Lane == Id)
      Busy += S.End - S.Start;
  return Busy;
}

void Tracer::annotateProfile(const prof::Snapshot &S) {
  // Sample every track at the current end of the timeline: phase totals
  // are whole-run aggregates, so one terminal sample per track renders as
  // a flat value beside the lanes.
  TimePoint At;
  for (const Slice &E : Slices)
    At = std::max(At, E.End);
  for (const Sample &C : Samples)
    At = std::max(At, C.At);
  for (const prof::PhaseStats &P : S.Phases)
    counter("prof " + P.Path + " self ms", At, P.exclusiveMs());
  for (const auto &[Name, V] : S.Counters)
    counter("prof counter " + Name, At, static_cast<double>(V));
}

namespace {

template <typename T> void appendNumber(std::string &Out, T V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends \p Ns nanoseconds in microseconds with three decimals, the bytes
/// printf's "%.3f" gives for Ns / 1000.0.
void appendMicros(std::string &Out, int64_t Ns) {
  // Below 2^52 ns in magnitude the double quotient lies within half a
  // thousandth of the exact one, so %.3f prints the exact digits.
  constexpr int64_t Exact = int64_t(1) << 52;
  if (Ns <= -Exact || Ns >= Exact) {
    char Buf[32];
    int N = std::snprintf(Buf, sizeof(Buf), "%.3f",
                          static_cast<double>(Ns) / 1000.0);
    Out.append(Buf, static_cast<size_t>(N));
    return;
  }
  if (Ns < 0)
    Out += '-';
  uint64_t Abs = static_cast<uint64_t>(Ns < 0 ? -Ns : Ns);
  appendNumber(Out, Abs / 1000);
  unsigned Frac = static_cast<unsigned>(Abs % 1000);
  char Digits[4] = {'.', static_cast<char>('0' + Frac / 100),
                    static_cast<char>('0' + Frac / 10 % 10),
                    static_cast<char>('0' + Frac % 10)};
  Out.append(Digits, sizeof(Digits));
}

/// Appends \p V as printf's "%g" prints it.
void appendValue(std::string &Out, double V) {
  char Buf[32];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V,
                                std::chars_format::general, 6)
                      .ptr);
}

} // namespace

std::string Tracer::renderChromeTrace() const {
  FCL_PROF_SCOPE("trace.render");
  // Counter tracks repeat on every sample: escape each name once.
  std::vector<std::string> TrackJson(Tracks.Names.size());
  for (size_t I = 0; I < TrackJson.size(); ++I)
    appendJsonEscaped(TrackJson[I], Tracks.Names[I]);
  // Fixed bytes per record plus generous room for its numbers; escaping
  // rarely grows a name, and the string grows if it does.
  size_t Reserve = 32 + Text.size() + Slices.size() * 112;
  for (const std::string &Lane : Lanes.Names)
    Reserve += 96 + Lane.size();
  for (const Sample &S : Samples)
    Reserve += 72 + TrackJson[S.Track].size();

  std::string Out;
  Out.reserve(Reserve);
  Out += "{\"traceEvents\":[\n"sv;
  std::string_view Sep;
  for (uint32_t Tid = 0; Tid < Lanes.Names.size(); ++Tid) {
    Out += Sep;
    Sep = ",\n"sv;
    Out += "{\"ph\":\"M\",\"pid\":1,\"tid\":"sv;
    appendNumber(Out, Tid);
    Out += ",\"name\":\"thread_name\",\"args\":{\"name\":\""sv;
    appendJsonEscaped(Out, Lanes.Names[Tid]);
    Out += "\"}}"sv;
  }
  std::string_view All(Text);
  for (const Slice &S : Slices) {
    Out += Sep;
    Sep = ",\n"sv;
    Out += "{\"ph\":\"X\",\"pid\":1,\"tid\":"sv;
    appendNumber(Out, S.Lane);
    Out += ",\"name\":\""sv;
    appendJsonEscaped(Out, All.substr(S.TextAt, S.NameLen));
    Out += "\",\"ts\":"sv;
    appendMicros(Out, S.Start.nanos());
    Out += ",\"dur\":"sv;
    appendMicros(Out, (S.End - S.Start).nanos());
    Out += ",\"args\":{\"detail\":\""sv;
    appendJsonEscaped(Out, All.substr(S.TextAt + S.NameLen, S.DetailLen));
    Out += "\"}}"sv;
  }
  // Counter tracks: Perfetto groups "C" events of the same pid/name into one
  // step-function track beside the slice lanes.
  for (const Sample &S : Samples) {
    Out += Sep;
    Sep = ",\n"sv;
    Out += "{\"ph\":\"C\",\"pid\":1,\"name\":\""sv;
    Out += TrackJson[S.Track];
    Out += "\",\"ts\":"sv;
    appendMicros(Out, S.At.nanos());
    Out += ",\"args\":{\"value\":"sv;
    appendValue(Out, S.Value);
    Out += "}}"sv;
  }
  Out += "\n]}\n"sv;
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  return writeFile(Path, renderChromeTrace());
}

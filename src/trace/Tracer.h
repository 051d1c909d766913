//===- trace/Tracer.h - Execution tracing -----------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records what every simulated resource (GPU, CPU, PCIe directions, host)
/// is doing over virtual time and exports the timeline in the Chrome
/// tracing JSON format (open chrome://tracing or https://ui.perfetto.dev
/// and load the file). Attach a Tracer to an mcl::Context and every queue
/// command - kernel launches, CPU subkernels, data/status transfers,
/// merges, DH reads - shows up as a slice on its resource's lane, which
/// makes FluidiCL's cooperative schedule directly visible.
///
/// Records are compact: lane and counter-track names are interned on first
/// use (a lane's id is its tid in the rendered trace), a slice's name and
/// detail live in one shared text buffer, and a counter sample is {track
/// id, time, value}. renderChromeTrace() writes straight from them.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_TRACE_TRACER_H
#define FCL_TRACE_TRACER_H

#include "prof/Profiler.h"
#include "support/SimTime.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fcl {
namespace trace {

/// One completed slice on a resource lane, with its names spelled out
/// (events(), laneEvents()).
struct TraceEvent {
  std::string Lane;
  std::string Name;
  std::string Detail; // Free-form note shown in the trace viewer args.
  TimePoint Start;
  TimePoint End;

  Duration duration() const { return End - Start; }
};

/// One point of a Perfetto counter track ("C" phase event): the value of a
/// named quantity at an instant (chunk size, outstanding transfers, live
/// work-groups, ...). The viewer draws each track as a step function next
/// to the slice lanes, so the numbers line up visually with the timeline.
struct CounterSample {
  std::string Track;
  TimePoint At;
  double Value = 0;
};

/// Collects slices and counter samples and renders them as a Chrome trace.
class Tracer {
public:
  /// A counter sample as stored: its track is an interned id.
  struct Sample {
    uint32_t Track = 0;
    TimePoint At;
    double Value = 0;
  };

  Tracer();

  /// Records a slice; \p End must not precede \p Start.
  void record(std::string_view Lane, std::string_view Name, TimePoint Start,
              TimePoint End, std::string_view Detail = {});

  /// Records one counter-track point.
  void counter(std::string_view Track, TimePoint At, double Value);

  /// Appends every slice and counter sample of \p Other, with \p Prefix
  /// prepended to lane and track names. fcl::cluster merges per-worker
  /// tracers into one timeline this way ("w0 ", "w1 ", ...), after the
  /// worker threads have been joined.
  void mergeFrom(const Tracer &Other, std::string_view Prefix);

  /// Folds the wall-clock profiler's phase totals into the trace as
  /// Perfetto counter tracks ("prof <path> self ms" / "prof counter
  /// <name>") sampled at the timeline's end, so host-side hotspots can be
  /// read alongside the sim-time lanes. Call once, after the run.
  void annotateProfile(const prof::Snapshot &S);

  /// Every slice, in record order.
  std::vector<TraceEvent> events() const;
  const std::vector<Sample> &counterSamples() const { return Samples; }
  size_t size() const { return Slices.size(); }
  /// Drops every record and interned name: tids restart from 0.
  void clear();

  /// Lane names in tid (first-appearance) order.
  const std::vector<std::string> &lanes() const { return Lanes.Names; }

  /// Events on one lane, in record order.
  std::vector<TraceEvent> laneEvents(const std::string &Lane) const;

  /// Counter samples of one track, in record order.
  std::vector<CounterSample> trackSamples(const std::string &Track) const;

  /// Busy time (sum of slice durations) of one lane.
  Duration laneBusy(const std::string &Lane) const;

  /// Renders the Chrome tracing JSON: a "traceEvents" array of "X" slices
  /// (one tid per lane, microsecond timestamps) plus "C" counter events,
  /// one Perfetto counter track per distinct counter name.
  std::string renderChromeTrace() const;

  /// Writes the Chrome trace to \p Path; false if the file cannot be
  /// written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  /// Names numbered in first-appearance order.
  struct NameTable {
    static constexpr uint32_t None = UINT32_MAX;

    uint32_t intern(std::string_view Name);
    uint32_t find(std::string_view Name) const;

    std::vector<std::string> Names;
    std::map<std::string, uint32_t, std::less<>> Ids;
  };

  /// A slice as stored: Name then Detail sit at Text[TextAt...].
  struct Slice {
    TimePoint Start;
    TimePoint End;
    size_t TextAt = 0;
    uint32_t NameLen = 0;
    uint32_t DetailLen = 0;
    uint32_t Lane = 0;
  };

  TraceEvent event(const Slice &S) const;

  std::vector<Slice> Slices;
  std::vector<Sample> Samples;
  std::string Text;
  NameTable Lanes;
  NameTable Tracks;
  /// fcl::race critical-section name: writes from different logical tasks
  /// are declared mutex-protected per tracer.
  std::string RaceSec;
};

} // namespace trace
} // namespace fcl

#endif // FCL_TRACE_TRACER_H

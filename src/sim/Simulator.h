//===- sim/Simulator.h - Deterministic discrete-event simulator -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation core that stands in for wall-clock time and
/// hardware concurrency. Devices (simulated GPU/CPU), the PCIe link, and the
/// FluidiCL host-side "threads" are all event-driven state machines scheduled
/// on a single Simulator, which makes every experiment deterministic and
/// bit-reproducible.
///
/// Events with equal timestamps fire in schedule order (a monotonically
/// increasing sequence number breaks ties), so there is no ordering
/// nondeterminism. A scheduled event always fires; a callback whose effect
/// may be stale by then checks for that itself, as FluidiCL's guards do.
///
/// One run loop runs at a time and the clock never runs backwards: an event
/// callback may schedule further events, but a run loop it starts must not
/// fire one or move the clock (FCL_CHECKed). Host work inside an event is
/// a scheduled continuation instead (mcl::Context::hostThen).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SIM_SIMULATOR_H
#define FCL_SIM_SIMULATOR_H

#include "support/SimTime.h"

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fcl {
namespace sim {

/// A single-threaded discrete-event simulator with a virtual clock.
class Simulator {
public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Current virtual time. Advances only inside run()/runUntil()/step().
  TimePoint now() const { return Now; }

  /// True while an event callback is running.
  bool inEvent() const { return InEvent; }

  /// Schedules \p Fn to run at absolute time \p At (>= now()).
  void scheduleAt(TimePoint At, Callback Fn);

  /// Schedules \p Fn to run \p Delay after now().
  void scheduleAfter(Duration Delay, Callback Fn);

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with timestamps <= \p Deadline, then sets now() to
  /// \p Deadline (if the queue drained earlier). Inside an event only
  /// \p Deadline == now() with nothing due is legal.
  void runUntil(TimePoint Deadline);

  /// Runs until \p Pred() returns true (checked after each event) or the
  /// queue drains. Returns true if the predicate was satisfied. Inside an
  /// event it is legal only when it fires nothing: \p Pred() already holds
  /// or the queue is empty.
  bool runWhileNot(const std::function<bool()> &Pred);

  /// Fires the single earliest pending event. Returns false if none.
  /// Aborts when called inside an event.
  bool step();

  /// Number of events executed since construction.
  uint64_t eventsExecuted() const { return Executed; }

  /// True while any scheduled event has yet to fire.
  bool hasPending() const { return !Queue.empty(); }

private:
  struct Entry {
    TimePoint At;
    uint64_t Seq;
    uint32_t Slot;
    bool operator>(const Entry &RHS) const {
      if (At != RHS.At)
        return At > RHS.At;
      return Seq > RHS.Seq;
    }
  };

  /// The loop behind run(), runUntil() and runWhileNot(): fires events due
  /// at or before \p Deadline until \p Stop (if non-null) returns true after
  /// one of them, or none is left. Returns true if \p Stop held.
  bool pump(TimePoint Deadline, const std::function<bool()> *Stop);

  /// This simulator's race-analyzer domain, allocated lazily on the first
  /// hook so unanalyzed runs never touch the analyzer. Event sequence
  /// numbers are per-simulator, so every instance needs its own namespace
  /// in the process-wide analyzer (the cluster tier runs one simulator per
  /// worker thread).
  uint32_t raceDomain();

  /// Reports the drain join at every run-loop exit (O(1) watermark).
  void raceDrainExit();

  /// Publishes the deltas of the plain member counters since the last flush
  /// to the wall-clock profiler's churn counters. Called at run-loop exit so
  /// the per-event path stays free of atomic operations.
  void flushProfCounters();

  TimePoint Now;
  uint64_t NextSeq = 1;
  uint64_t Executed = 0;
  bool InEvent = false;
  /// Lazily-allocated analyzer domain (0 = not yet allocated).
  uint32_t RaceDomain = 0;

  /// Member-counter values as of the last flushProfCounters() call.
  struct ProfFlushMark {
    uint64_t Scheduled = 0;
    uint64_t Executed = 0;
  } LastProfFlush;

  /// Heap entries stay small and cheap to sift; each callback sits in a
  /// slot that is reused, through FreeSlots, once its event has fired.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Queue;
  std::vector<Callback> Slots;
  std::vector<uint32_t> FreeSlots;
};

} // namespace sim
} // namespace fcl

#endif // FCL_SIM_SIMULATOR_H

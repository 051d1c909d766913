//===- sim/Simulator.cpp - Deterministic discrete-event simulator --------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "prof/Profiler.h"
#include "race/Race.h"
#include "support/Error.h"

#include <cassert>
#include <limits>

using namespace fcl;
using namespace fcl::sim;

// Event-queue churn counters (wall-clock profiler view; the deterministic
// member counters feed the stats registries instead). The hot path only
// bumps plain members; flushProfCounters() publishes the deltas at
// run-loop exit, keeping atomic traffic out of the per-event dispatch.
static prof::Counter ProfScheduled("sim.events_scheduled");
static prof::Counter ProfExecuted("sim.events_executed");

void Simulator::flushProfCounters() {
  ProfScheduled.add((NextSeq - 1) - LastProfFlush.Scheduled);
  ProfExecuted.add(Executed - LastProfFlush.Executed);
  LastProfFlush = {NextSeq - 1, Executed};
}

uint32_t Simulator::raceDomain() {
  if (RaceDomain == 0)
    RaceDomain = race::Analyzer::instance().allocDomain();
  return RaceDomain;
}

void Simulator::scheduleAt(TimePoint At, Callback Fn) {
  FCL_CHECK(At >= Now, "cannot schedule an event in the past");
  FCL_CHECK(Fn != nullptr, "cannot schedule a null callback");
  uint32_t Slot;
  if (FreeSlots.empty()) {
    Slot = static_cast<uint32_t>(Slots.size());
    Slots.push_back(std::move(Fn));
  } else {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
    Slots[Slot] = std::move(Fn);
  }
  uint64_t Seq = NextSeq++;
  Queue.push(Entry{At, Seq, Slot});
  if (race::Analyzer::enabled())
    race::Analyzer::instance().onSchedule(Seq, raceDomain());
}

void Simulator::scheduleAfter(Duration Delay, Callback Fn) {
  FCL_CHECK(Delay >= Duration::zero(), "negative delay");
  scheduleAt(Now + Delay, std::move(Fn));
}

bool Simulator::step() {
  if (Queue.empty())
    return false;
  FCL_CHECK(!InEvent, "run loop inside an event would fire an event: host "
                      "work inside an event must be a continuation");
  Entry Top = Queue.top();
  Queue.pop();
  // Take the callback and free its slot before calling it: the callback may
  // schedule events, which can reuse the slot or grow Slots.
  Callback Fn = std::move(Slots[Top.Slot]);
  FreeSlots.push_back(Top.Slot);
  assert(Top.At >= Now && "event queue went backwards");
  Now = Top.At;
  ++Executed;
  InEvent = true;
  if (race::Analyzer::enabled()) {
    race::Analyzer &RA = race::Analyzer::instance();
    RA.onEventBegin(Top.Seq, raceDomain());
    Fn();
    RA.onEventEnd();
  } else {
    Fn();
  }
  InEvent = false;
  return true;
}

// The run loops open a "sim.run" profiler phase and flush the counters
// only when there is event work to do: blocking host calls hit these entry
// points thousands of times per run with an empty or not-yet-due queue.
bool Simulator::pump(TimePoint Deadline, const std::function<bool()> *Stop) {
  if (Queue.empty() || Queue.top().At > Deadline)
    return false;
  bool Stopped = false;
  {
    prof::ScopedPhase Phase("sim.run");
    while (!Stopped && !Queue.empty() && Queue.top().At <= Deadline) {
      step();
      Stopped = Stop && (*Stop)();
    }
  }
  flushProfCounters();
  return Stopped;
}

// Returning from any run loop is a drain: the caller blocked until every
// event THIS simulator executed so far had finished, which orders it
// after all of them (other simulators' events may still be running on
// other threads, so the join is per-domain). The analyzer join is O(1)
// (a version watermark), so every exit path reports it.
void Simulator::raceDrainExit() {
  if (race::Analyzer::enabled())
    race::Analyzer::instance().onDrainExit(raceDomain());
}

static constexpr TimePoint EndOfTime(std::numeric_limits<int64_t>::max());

void Simulator::run() {
  pump(EndOfTime, nullptr);
  raceDrainExit();
}

void Simulator::runUntil(TimePoint Deadline) {
  FCL_CHECK(Deadline >= Now, "deadline in the past");
  FCL_CHECK(!InEvent || Deadline == Now,
            "runUntil inside an event would move the clock: host work "
            "inside an event must be a continuation");
  pump(Deadline, nullptr);
  FCL_CHECK(Now <= Deadline, "runUntil would move the clock backwards");
  Now = Deadline;
  raceDrainExit();
}

bool Simulator::runWhileNot(const std::function<bool()> &Pred) {
  if (Pred())
    return true;
  if (Queue.empty())
    return false;
  bool Satisfied = pump(EndOfTime, &Pred);
  raceDrainExit();
  return Satisfied;
}

//===- tests/sim_test.cpp - Discrete-event simulator tests -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "mcl/Context.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

using namespace fcl;
using namespace fcl::sim;

namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator Sim;
  EXPECT_EQ(Sim.now().nanos(), 0);
  EXPECT_FALSE(Sim.hasPending());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(30), [&] { Order.push_back(3); });
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Order.push_back(1); });
  Sim.scheduleAfter(Duration::nanoseconds(20), [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sim.now().nanos(), 30);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(5), [&, I] { Order.push_back(I); });
  Sim.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[static_cast<size_t>(I)], I);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator Sim;
  TimePoint Seen;
  Sim.scheduleAt(TimePoint(12345), [&] { Seen = Sim.now(); });
  Sim.run();
  EXPECT_EQ(Seen.nanos(), 12345);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    Order.push_back(1);
    Sim.scheduleAfter(Duration::nanoseconds(5), [&] { Order.push_back(2); });
  });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_EQ(Sim.now().nanos(), 15);
}

TEST(SimulatorTest, ZeroDelayEventFiresAtSameTime) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAfter(Duration::zero(), [&] { Ran = true; });
  Sim.run();
  EXPECT_TRUE(Ran);
  EXPECT_EQ(Sim.now().nanos(), 0);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator Sim;
  int Count = 0;
  Sim.scheduleAfter(Duration::nanoseconds(1), [&] { ++Count; });
  Sim.scheduleAfter(Duration::nanoseconds(2), [&] { ++Count; });
  EXPECT_TRUE(Sim.step());
  EXPECT_EQ(Count, 1);
  EXPECT_TRUE(Sim.step());
  EXPECT_EQ(Count, 2);
  EXPECT_FALSE(Sim.step());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Order.push_back(1); });
  Sim.scheduleAfter(Duration::nanoseconds(30), [&] { Order.push_back(2); });
  Sim.runUntil(TimePoint(20));
  EXPECT_EQ(Order, (std::vector<int>{1}));
  EXPECT_EQ(Sim.now().nanos(), 20);
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAt(TimePoint(20), [&] { Ran = true; });
  Sim.runUntil(TimePoint(20));
  EXPECT_TRUE(Ran);
}

TEST(SimulatorTest, RunWhileNotStopsWhenPredicateHolds) {
  Simulator Sim;
  int Count = 0;
  for (int I = 1; I <= 10; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(I), [&] { ++Count; });
  bool Satisfied = Sim.runWhileNot([&] { return Count >= 4; });
  EXPECT_TRUE(Satisfied);
  EXPECT_EQ(Count, 4);
}

TEST(SimulatorTest, RunWhileNotReturnsFalseWhenQueueDrains) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(1), [] {});
  EXPECT_FALSE(Sim.runWhileNot([] { return false; }));
}

TEST(SimulatorTest, RunWhileNotImmediateWhenAlreadyTrue) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAfter(Duration::nanoseconds(1), [&] { Ran = true; });
  EXPECT_TRUE(Sim.runWhileNot([] { return true; }));
  EXPECT_FALSE(Ran);
}

TEST(SimulatorTest, EventsExecutedCounts) {
  Simulator Sim;
  for (int I = 0; I < 5; ++I)
    Sim.scheduleAfter(Duration::nanoseconds(I), [] {});
  Sim.run();
  EXPECT_EQ(Sim.eventsExecuted(), 5u);
}

// A few thousand events on a coarse time grid (so most timestamps tie),
// some of whose callbacks schedule more events at zero delay or later, run
// through interleaved runUntil, runWhileNot and run calls. Every event's
// key (time, schedule order) exceeds the key of the event that is firing
// when it is scheduled, so the queue must fire all of them in sorted key
// order. Slots are reused as soon as one callback schedules another.
TEST(SimulatorTest, ManyTiedEventsFireInTimeThenScheduleOrder) {
  Simulator Sim;
  Rng R(20260);
  std::vector<std::pair<int64_t, int>> Keys; // (time, schedule order)
  std::vector<int> Fired;
  std::function<void(int64_t)> Schedule = [&](int64_t Delay) {
    int Id = static_cast<int>(Keys.size());
    Keys.emplace_back(Sim.now().nanos() + Delay, Id);
    Sim.scheduleAfter(Duration::nanoseconds(Delay), [&, Id] {
      Fired.push_back(Id);
      if (Keys.size() < 5000 && R.nextBelow(3) == 0)
        Schedule(R.nextBelow(2) == 0
                     ? 0
                     : 10 * static_cast<int64_t>(1 + R.nextBelow(5)));
    });
  };
  for (int Batch = 0; Batch < 3; ++Batch) {
    for (int I = 0; I < 700; ++I)
      Schedule(10 * static_cast<int64_t>(R.nextBelow(50)));
    for (int Round = 0; Round < 8; ++Round) {
      Sim.runUntil(Sim.now() + Duration::nanoseconds(25));
      size_t Target = Fired.size() + R.nextBelow(200);
      Sim.runWhileNot([&] { return Fired.size() >= Target; });
    }
    Sim.run();
  }
  ASSERT_GT(Keys.size(), 2500u);
  std::vector<std::pair<int64_t, int>> Sorted = Keys;
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<int> Expected;
  for (const auto &[At, Id] : Sorted)
    Expected.push_back(Id);
  EXPECT_EQ(Fired, Expected);
  EXPECT_EQ(Sim.eventsExecuted(), Keys.size());
  EXPECT_FALSE(Sim.hasPending());
}

// Outside any event, hostThen blocks: it runs every event due by now()+D,
// then the continuation, before it returns.
TEST(HostThenTest, OutsideAnEventRunsTheLoopThenTheContinuation) {
  mcl::Context Ctx;
  sim::Simulator &Sim = Ctx.simulator();
  std::vector<std::string> Order;
  Sim.scheduleAfter(Duration::nanoseconds(50), [&] { Order.push_back("a"); });
  Sim.scheduleAfter(Duration::nanoseconds(100), [&] { Order.push_back("b"); });
  Sim.scheduleAfter(Duration::nanoseconds(101), [&] { Order.push_back("c"); });
  TimePoint RanAt;
  Ctx.hostThen(Duration::nanoseconds(100), [&] {
    Order.push_back("then");
    RanAt = Sim.now();
  });
  EXPECT_EQ(Order, (std::vector<std::string>{"a", "b", "then"}));
  EXPECT_EQ(RanAt, TimePoint(100));
  EXPECT_EQ(Sim.now(), TimePoint(100));
  Sim.run();
  EXPECT_EQ(Order.back(), "c");
}

// Inside an event, hostThen returns at once: no other event runs inside
// it, and the continuation fires as its own event at now()+D.
TEST(HostThenTest, InsideAnEventSchedulesTheContinuation) {
  mcl::Context Ctx;
  sim::Simulator &Sim = Ctx.simulator();
  std::vector<std::string> Order;
  TimePoint RanAt;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    Ctx.hostThen(Duration::nanoseconds(100), [&] {
      EXPECT_TRUE(Sim.inEvent());
      Order.push_back("then");
      RanAt = Sim.now();
    });
    Order.push_back("returned");
    EXPECT_EQ(Sim.now(), TimePoint(10));
  });
  Sim.scheduleAfter(Duration::nanoseconds(20), [&] { Order.push_back("x"); });
  Sim.scheduleAfter(Duration::nanoseconds(200), [&] { Order.push_back("y"); });
  Sim.run();
  EXPECT_EQ(Order,
            (std::vector<std::string>{"returned", "x", "then", "y"}));
  EXPECT_EQ(RanAt, TimePoint(110));
}

TEST(SimulatorTest, DrainsInsideAnEventThatFireNothingAreLegal) {
  Simulator Sim;
  bool Ran = false;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    EXPECT_TRUE(Sim.runWhileNot([] { return true; }));
    Sim.runUntil(Sim.now());
    Ran = true;
  });
  Sim.scheduleAfter(Duration::nanoseconds(20), [] {});
  Sim.run();
  EXPECT_TRUE(Ran);
}

// A run loop started inside an event while another event is due would
// nest loops (and could move the clock back when it returns): it aborts.
TEST(SimulatorDeathTest, RunLoopInsideAnEventWithAnEventDueAborts) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] { Sim.run(); });
  Sim.scheduleAfter(Duration::nanoseconds(20), [] {});
  EXPECT_DEATH(Sim.run(), "inside an event");
}

TEST(SimulatorDeathTest, RunUntilInsideAnEventThatMovesTheClockAborts) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(10), [&] {
    Sim.runUntil(Sim.now() + Duration::nanoseconds(5));
  });
  EXPECT_DEATH(Sim.run(), "move the clock");
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator Sim;
  Sim.scheduleAfter(Duration::nanoseconds(100), [] {});
  Sim.run();
  EXPECT_DEATH(Sim.scheduleAt(TimePoint(5), [] {}), "past");
}

TEST(SimulatorDeathTest, NegativeDelayAborts) {
  Simulator Sim;
  EXPECT_DEATH(Sim.scheduleAfter(Duration::nanoseconds(-1), [] {}),
               "negative");
}

} // namespace

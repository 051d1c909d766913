//===- race/Fixtures.cpp - Seeded concurrency-hazard fixtures -------------===//

#include "race/Fixtures.h"

#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <functional>
#include <memory>

namespace fcl::race {
namespace {

// --- unordered_sibling_writes -------------------------------------------
// Two events forked independently from the host both write a shared
// accumulator with no declared synchronization: nothing orders them, so
// on OS threads the writes would race.
void runUnorderedSiblingWrites() {
  sim::Simulator S;
  auto Bump = [] {
    Analyzer::instance().sharedWrite("fixture.shared_total", "accumulate");
  };
  S.scheduleAfter(Duration::microseconds(1), Bump);
  S.scheduleAfter(Duration::microseconds(2), Bump);
  S.run();
}

// --- sectioned_sibling_writes (clean) ------------------------------------
// The same sibling shape, but both writes run inside the same declared
// Section (a would-be mutex): enter joins the previous holder's published
// clock, so the accesses are ordered.
void runSectionedSiblingWrites() {
  sim::Simulator S;
  auto Bump = [] {
    Section Sec("fixture.section");
    Analyzer::instance().sharedWrite("fixture.shared_total", "accumulate");
  };
  S.scheduleAfter(Duration::microseconds(1), Bump);
  S.scheduleAfter(Duration::microseconds(2), Bump);
  S.run();
}

// --- drain_ordered_writes (clean) ----------------------------------------
// Host writes after run() returns: the drain join orders the host after
// every event, so reading/writing what the events wrote is safe.
void runDrainOrderedWrites() {
  sim::Simulator S;
  S.scheduleAfter(Duration::microseconds(1), [] {
    Analyzer::instance().sharedWrite("fixture.result", "produce");
  });
  S.run();
  Analyzer::instance().sharedRead("fixture.result", "consume");
  Analyzer::instance().sharedWrite("fixture.result", "reset");
}

// --- lease_overlap --------------------------------------------------------
// Two independently forked events both acquire the same device lease and
// neither releases first: overlapping ownership.
void runLeaseOverlap() {
  sim::Simulator S;
  S.scheduleAfter(Duration::microseconds(1), [] {
    Analyzer::instance().leaseAcquire("fixture.device", "job-a");
  });
  S.scheduleAfter(Duration::microseconds(2), [] {
    Analyzer::instance().leaseAcquire("fixture.device", "job-b");
  });
  S.run();
}

// --- lease_handoff (clean) ------------------------------------------------
// Acquire/release/acquire in event order: a proper ownership handoff
// (acquire joins the previous release, so the holders are ordered).
void runLeaseHandoff() {
  sim::Simulator S;
  S.scheduleAfter(Duration::microseconds(1), [] {
    Analyzer::instance().leaseAcquire("fixture.device", "job-a");
  });
  S.scheduleAfter(Duration::microseconds(2), [] {
    Analyzer::instance().leaseRelease("fixture.device");
  });
  S.scheduleAfter(Duration::microseconds(3), [] {
    Analyzer::instance().leaseAcquire("fixture.device", "job-b");
  });
  S.run();
}

// --- reentrant_callback ---------------------------------------------------
// A completion callback declares a non-reentrant scope and re-arms itself
// on its own event from inside that scope. The event has already fired,
// so Event::onComplete runs the callback inline: the second invocation
// starts while the first is still on the stack.
void runReentrantCallback() {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  std::unique_ptr<mcl::CommandQueue> Q = Ctx.createQueue(Ctx.gpu());
  mcl::EventPtr Done = Q->enqueueCallback([] {});
  int Calls = 0;
  std::function<void()> OnDone = [&] {
    GuardScope Guard("fixture.on_done");
    if (++Calls < 2)
      Done->onComplete(OnDone);
  };
  Done->onComplete(OnDone);
  Ctx.simulator().run();
}

const std::vector<FixtureCase> Cases = {
    {"unordered_sibling_writes",
     "sibling events write one accumulator with no synchronization",
     true, FindingKind::UnorderedAccess, runUnorderedSiblingWrites},
    {"lease_overlap",
     "two jobs acquire the same device lease without a release between",
     true, FindingKind::LeaseOverlap, runLeaseOverlap},
    {"reentrant_callback",
     "completion callback re-arms itself inside its non-reentrant scope",
     true, FindingKind::ReentrantCallback, runReentrantCallback},
    {"sectioned_sibling_writes",
     "clean: the sibling writes are ordered through a declared Section",
     false, FindingKind::UnorderedAccess, runSectionedSiblingWrites},
    {"drain_ordered_writes",
     "clean: host touches event results only after the drain join",
     false, FindingKind::UnorderedAccess, runDrainOrderedWrites},
    {"lease_handoff",
     "clean: acquire/release/acquire is an ordered ownership handoff",
     false, FindingKind::LeaseOverlap, runLeaseHandoff},
};

} // namespace

const std::vector<FixtureCase> &fixtureCases() { return Cases; }

bool runFixtureSweep(bool Verbose) {
  Analyzer &A = Analyzer::instance();
  bool AllOk = true;
  for (const FixtureCase &C : Cases) {
    A.reset();
    A.setEnabled(true);
    C.Run();
    A.setEnabled(false);
    std::vector<Finding> Found = A.takeFindings();
    bool Ok;
    if (C.ExpectFinding) {
      // The hazard must be caught with its distinct diagnostic and must
      // not splash into other kinds.
      Ok = !Found.empty();
      for (const Finding &F : Found)
        if (F.Kind != C.Expected)
          Ok = false;
    } else {
      Ok = Found.empty();
    }
    if (Verbose || !Ok) {
      std::printf("race fixture %-28s %-4s (%s)\n", C.Name,
                  Ok ? "ok" : "FAIL", C.Hazard);
      for (const Finding &F : Found)
        std::printf("    [%s] %s\n", findingKindName(F.Kind),
                    F.Message.c_str());
    }
    AllOk = AllOk && Ok;
  }
  A.reset();
  return AllOk;
}

} // namespace fcl::race

//===- race/Race.h - Happens-before would-be-race analyzer ------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the fcl::race concurrency-readiness analyzer.
///
/// Simulators, runtimes and serving engines historically ran on one OS
/// thread; the cluster tier now puts each device pair's simulator on its
/// own thread. Any pair of host-structure accesses that is not ordered by
/// the event graph's happens-before relation is a real data race there.
/// This analyzer finds those pairs, in both the single-threaded and the
/// threaded-cluster shape:
///
///  * Each simulator reports its causal structure (event schedule->execute
///    fork edges and drain joins at run-loop exits) tagged with its
///    analysis *domain* (one per simulator instance), and the analyzer
///    maintains a vector clock per logical task (each thread's root program
///    plus every executed event).
///  * Instrumented code declares its synchronization intent: a Section is
///    a would-be mutex (enter joins the section's last published clock,
///    exit publishes the current clock), a lease is an ownership handoff
///    (acquire while held is a diagnostic), a guard is a non-reentrant
///    scope (nested entry is a diagnostic), and an hb channel is a real
///    cross-thread edge (a mutex/condition-variable handoff that already
///    exists, e.g. the cluster fabric's epoch barrier).
///  * Shared host structures (serve queues, version tracker, buffer pool,
///    the cluster master's tables) are shadow-tracked: every read/write is
///    checked against the last conflicting access, and any pair unordered
///    by happens-before is reported as a would-be race. The stats
///    registries and the tracer are not: each only declares a Section
///    around its writes, whose enter and exit add happens-before edges
///    between the tasks that write it, and no access of theirs is
///    checked.
///
/// Vector clocks use strand compression: the first event a task schedules
/// continues the parent's strand at the next epoch, so completion chains
/// (the dominant shape here) keep clocks small; only genuine forks create
/// strands. Drain joins are O(1) and per-domain: the analyzer keeps a
/// global version counter, records at which version (and in which domain)
/// each (strand, epoch) began, and a task that returns from a blocking
/// run-loop remembers that it joined everything *its* simulator began up
/// to the current version. A drain never covers another simulator's
/// events - on OS threads those may still be running.
///
/// Drains also retire strands. Whenever a clock is built (an event
/// begins, a drain returns, a clock is joined or published), each explicit
/// entry (strand s, epoch E) that the same clock's drains already cover is
/// dropped: every epoch of s up to E began in one domain d (or is the
/// host's pre-history root) and the clock's drain of d is at or past the
/// version at which (s, E) began. Entries of strands that crossed domains
/// (the cluster master's continuation into a worker's simulator) or began
/// in none (worker-thread roots) are always kept: only they order those
/// epochs. No happens-before answer changes.
///
/// Dead strands retire too. A strand's clock entries matter only to check
/// accesses recorded on it, so the analyzer counts what can still record or
/// keep one: a task running on the strand, a scheduled event that will
/// continue it, and the shadow records of its accesses (a destroyed
/// object's records go with forgetObject()). Once the count is zero it
/// stays zero, and every clock built drops the strand's entry. In one
/// simulator, where run loops never nest and so never drain inside an
/// event, this is what keeps clocks a few entries long however long the
/// run: 7-8 in a 16-stream serve run from 0.125 s to 3 s of simulated time.
///
/// Tasks live on per-thread stacks: each OS thread that touches the
/// analyzer gets its own root task on first contact (the resetting thread
/// is the host; workers are thread#N), so concurrently executing events on
/// different threads never share a stack.
///
/// The analyzer is a process-wide singleton like prof::Profiler: disabled
/// (the default) every hook is one relaxed atomic load, and enabling it
/// never perturbs simulated time, scheduling order, or report bytes -
/// same-seed runs are byte-identical with the analyzer on or off. Armed,
/// it costs a constant per hook: a 16-stream serve run takes about twice
/// its plain time at 0.25, 0.5, 1 and 3 s of simulated time alike
/// (docs/ANALYSIS.md tables them).
///
/// Findings convert into check::DiagSink diagnostics through race/Bridge.h
/// (kept separate so this core depends on fcl_support only and the
/// simulator itself can link it).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RACE_RACE_H
#define FCL_RACE_RACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fcl {
namespace race {

/// What the analyzer can complain about. The check-subsystem mirror of
/// this catalogue lives in check::DiagKind (race/Bridge.cpp maps them).
enum class FindingKind {
  /// Two conflicting accesses to a shared object are unordered by
  /// happens-before: a data race once tasks move onto OS threads.
  UnorderedAccess,
  /// A non-reentrant scope (a callback that must not recurse into itself)
  /// was entered again while active.
  ReentrantCallback,
  /// A device/resource lease was acquired while another holder still held
  /// it (overlapping ownership).
  LeaseOverlap,
};

inline constexpr int NumFindingKinds =
    static_cast<int>(FindingKind::LeaseOverlap) + 1;

/// Stable snake_case identifier.
const char *findingKindName(FindingKind Kind);

/// One deduplicated finding: first-occurrence evidence plus a repeat
/// count, so long serve runs cannot grow finding memory unboundedly.
struct Finding {
  FindingKind Kind;
  /// The shared object / guard / lease the finding is about.
  std::string Object;
  /// Human-readable evidence from the first occurrence.
  std::string Message;
  /// Occurrences of this (kind, object) pair.
  uint64_t Repeats = 1;
};

/// Whole-run counters.
struct Summary {
  uint64_t AccessesChecked = 0;
  /// Explicit entries of the largest vector clock built since the reset.
  uint64_t MaxClockEntries = 0;
};

/// The process-wide happens-before analyzer.
class Analyzer {
public:
  static Analyzer &instance();

  /// One relaxed load; every instrumentation site checks this before
  /// paying for a call or for building object names.
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }

  void setEnabled(bool On);

  /// Drops all task/shadow/finding state and restarts from a fresh host
  /// task owned by the calling thread. Call between independent analyzed
  /// runs. Domain ids are NOT recycled (simulators outlive resets).
  void reset();

  /// Reserves a fresh analysis domain. Each simulator instance allocates
  /// one lazily so its fork/drain structure never collides with another
  /// simulator's event sequence numbers. Domain 0 is the legacy default
  /// for direct hook calls (unit tests).
  uint32_t allocDomain();

  // --- Simulator hooks (sim/Simulator.cpp) -------------------------------

  /// The current task scheduled event \p Seq in simulator domain
  /// \p Domain: snapshot the schedule-time clock (the fork edge).
  void onSchedule(uint64_t Seq, uint32_t Domain = 0);
  /// Event \p Seq starts executing in \p Domain (pushes a task on the
  /// calling thread's stack).
  void onEventBegin(uint64_t Seq, uint32_t Domain = 0);
  /// The innermost executing event on this thread finished (pops a task).
  void onEventEnd();
  /// A run loop of simulator \p Domain returned to its caller: the caller
  /// blocked until every event that simulator executed so far had
  /// finished, so it joins all of them (and only them - other domains may
  /// still be running on other threads).
  void onDrainExit(uint32_t Domain = 0);

  // --- Declared synchronization (instrumented code) -----------------------
  //
  // Prefer the RAII wrappers (Section / GuardScope) below.

  /// Would-be mutex acquire: joins the section's last published clock.
  void sectionEnter(const std::string &Name);
  /// Would-be mutex release: publishes the current task's clock.
  void sectionExit(const std::string &Name);

  /// Ownership handoff acquire; reports LeaseOverlap when already held.
  void leaseAcquire(const std::string &Name, const std::string &Holder);
  void leaseRelease(const std::string &Name);

  /// Non-reentrant scope; reports ReentrantCallback on nested entry.
  void guardEnter(const std::string &Name);
  void guardExit(const std::string &Name);

  // --- Real cross-thread edges (hb channels) -------------------------------

  /// Records a real synchronization edge that exists in the program (a
  /// mutex + condition-variable handoff, e.g. the cluster fabric's epoch
  /// barrier): publish merges the calling task's clock into the named
  /// channel; join makes the calling task cover everything published so
  /// far. Unlike Sections these assert ordering that genuinely exists, so
  /// call them only where the code really blocks.
  void hbPublish(const std::string &Chan);
  void hbJoin(const std::string &Chan);

  // --- Shadowed shared-object accesses ------------------------------------

  /// Reports UnorderedAccess when the last conflicting access to
  /// \p Object does not happen-before the current task.
  void sharedWrite(const std::string &Object, const char *What);
  void sharedRead(const std::string &Object, const char *What);
  /// \p Object was destroyed: its recorded accesses can never race again.
  void forgetObject(const std::string &Object);

  // --- Results -------------------------------------------------------------

  /// True when any finding was recorded (cheap; no lock ordering hazards).
  bool hasFindings() const;
  /// Findings in deterministic (kind, object) order; leaves them in place.
  std::vector<Finding> findings() const;
  /// findings(), then clears the finding set (task state is kept).
  std::vector<Finding> takeFindings();
  Summary summary() const;

private:
  Analyzer() { resetLocked(); }

  /// A small map kept as a vector sorted by key: clocks hold a few
  /// entries, so this costs one allocation where a std::map costs a node
  /// per entry.
  using Entries = std::vector<std::pair<uint32_t, uint64_t>>;

  /// A vector clock: strand-compressed explicit entries (strand -> latest
  /// joined epoch) plus per-domain drain watermarks (domain -> highest
  /// global version whose events, begun in that domain, it has joined).
  /// Shared copy-on-write between tasks, fork snapshots and sections.
  struct Clock {
    Entries Explicit;
    Entries Drains;
  };
  using ClockPtr = std::shared_ptr<const Clock>;

  /// One executing logical task (a thread's root, or an event on that
  /// thread's task stack).
  struct Task {
    uint64_t Seq = 0; // 0 = a thread root task.
    uint32_t Strand = 0;
    uint64_t Epoch = 0;
    ClockPtr C;
    bool ForkedContinuation = false;
  };

  /// One OS thread's task stack; [0] is the thread's root task and is
  /// never popped.
  struct ThreadState {
    size_t Slot = 0;
    std::vector<Task> Stack;
  };

  /// Fork-edge snapshot taken at schedule time.
  struct Pending {
    ClockPtr At;
    bool TakesParentStrand = false;
    uint32_t ParentStrand = 0;
  };

  /// Names a task for finding messages; formatted only when one is
  /// recorded.
  struct TaskRef {
    uint64_t Seq = 0;
    size_t Slot = 0;
    /// "host", "thread#<slot>" or "event#<seq>".
    std::string label() const;
  };

  struct Access {
    uint32_t Strand = 0;
    uint64_t Epoch = 0;
    TaskRef By;
    std::string What;
  };

  struct Shadow {
    bool HasWrite = false;
    Access LastWrite;
    /// Reads since the last write, newest epoch per strand.
    std::map<uint32_t, Access> Reads;
  };

  struct LeaseState {
    bool Held = false;
    std::string Holder;
    ClockPtr LastRelease;
  };

  struct GuardState {
    uint64_t Depth = 0;
    TaskRef Holder;
  };

  /// One epoch of a strand began at this global version, executing in
  /// this domain. OneDomain: every earlier epoch of the strand, bar the
  /// host's pre-history root, began in the same domain.
  struct HistEntry {
    uint64_t Version = 0;
    uint32_t Domain = 0;
    bool OneDomain = true;
  };

  void resetLocked();
  /// The calling thread's task stack, created (with a root task) on first
  /// contact after a reset.
  ThreadState &stateLocked();
  Task makeRootLocked(size_t Slot);
  Task &currentLocked();
  TaskRef currentRefLocked();
  /// Allocates a strand with no epochs and no references.
  uint32_t newStrandLocked();
  /// References that keep \p Strand's clock entries alive (see the file
  /// comment); the entries drop once the count is zero.
  void refStrandLocked(uint32_t Strand) { ++StrandRefs[Strand]; }
  void unrefStrandLocked(uint32_t Strand) { --StrandRefs[Strand]; }
  void unrefRecordsLocked(const Shadow &Sh);
  /// Begins the next epoch of \p Strand in \p Domain; returns the epoch.
  uint64_t beginEpochLocked(uint32_t Strand, uint32_t Domain);
  const HistEntry *beginOf(uint32_t Strand, uint64_t Epoch) const;
  /// True when access (Strand, Epoch) happens-before the current task.
  bool coversLocked(const Task &T, uint32_t Strand, uint64_t Epoch) const;
  /// True when \p Drains alone order (Strand, Epoch) - and, with
  /// \p AndEarlier, every earlier epoch of the strand, so that an explicit
  /// entry for them is redundant.
  bool drainedLocked(const Entries &Drains, uint32_t Strand, uint64_t Epoch,
                     bool AndEarlier) const;
  /// Drops \p C's drained explicit entries and those of dead strands; call
  /// on every clock built.
  void pruneLocked(Clock &C);
  /// Raises \p Dst to cover \p Src, then prunes it.
  void mergeLocked(Clock &Dst, const Clock &Src);
  /// Monotone clock union: \p Dst (a task's clock, or a section's or
  /// channel's accumulated one) covers everything it did plus \p Src.
  /// Sections accumulate: a would-be mutex acquire happens-after every
  /// prior release, not just the latest.
  void joinLocked(ClockPtr &Dst, const ClockPtr &Src);
  void recordFindingLocked(FindingKind Kind, const std::string &Object,
                           std::string Message);
  void checkAccessLocked(Shadow &Sh, const std::string &Object,
                         const char *What, bool IsWrite);

  static std::atomic<bool> Enabled;

  /// Thread roots other than the host execute in no simulator, so no
  /// drain can ever cover them.
  static constexpr uint32_t NoDomain = 0xffffffffu;

  mutable std::mutex Mu;
  /// One stack per OS thread that has touched the analyzer since the last
  /// reset; slot 0 is the resetting (host) thread.
  std::vector<std::unique_ptr<ThreadState>> Threads;
  /// Bumped by reset() to invalidate the thread-local slot cache.
  uint64_t ThreadGen = 1;
  std::map<std::pair<uint32_t, uint64_t>, Pending> PendingBySeq;
  /// Indexed by strand id, then by epoch - 1: when and where each epoch
  /// began. A new strand's id is History.size().
  std::vector<std::vector<HistEntry>> History;
  /// Indexed by strand id: the references refStrandLocked counts.
  std::vector<uint32_t> StrandRefs;
  uint32_t NextDomain = 1; // survives reset(); 0 = legacy default
  uint64_t GlobalVersion = 0;

  std::map<std::string, ClockPtr> Sections;
  std::map<std::string, ClockPtr> Channels;
  std::map<std::string, LeaseState> Leases;
  std::map<std::string, GuardState> Guards;
  std::map<std::string, Shadow> Shadows;

  /// Deduplicated findings keyed by (kind, object).
  std::map<std::pair<int, std::string>, Finding> Findings;
  std::atomic<uint64_t> FindingCount{0};
  Summary Sum;
};

/// RAII would-be critical section. Disarmed it costs one relaxed load;
/// armed it keeps its own copy of the name.
class Section {
public:
  explicit Section(const std::string &Name) {
    if (Analyzer::enabled() && !Name.empty()) {
      Nm = Name;
      Analyzer::instance().sectionEnter(Nm);
    }
  }
  ~Section() {
    if (!Nm.empty())
      Analyzer::instance().sectionExit(Nm);
  }
  Section(const Section &) = delete;
  Section &operator=(const Section &) = delete;

private:
  std::string Nm;
};

/// RAII non-reentrant scope; costs like Section.
class GuardScope {
public:
  explicit GuardScope(const std::string &Name) {
    if (Analyzer::enabled() && !Name.empty()) {
      Nm = Name;
      Analyzer::instance().guardEnter(Nm);
    }
  }
  ~GuardScope() {
    if (!Nm.empty())
      Analyzer::instance().guardExit(Nm);
  }
  GuardScope(const GuardScope &) = delete;
  GuardScope &operator=(const GuardScope &) = delete;

private:
  std::string Nm;
};

} // namespace race
} // namespace fcl

#endif // FCL_RACE_RACE_H

//===- prof/Profiler.h - Wall-clock host profiler ---------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead wall-clock profiler for the host-side hot paths: scoped
/// RAII phase timers with hierarchical inclusive/exclusive (self) time,
/// plus named churn counters (allocations, event-queue traffic). Strictly
/// observational: it reads the host's monotonic clock and never touches
/// simulated time, so enabling it cannot perturb sim-time determinism -
/// same-seed runs produce byte-identical reports with profiling on or off.
///
/// Usage:
///
///   void Engine::dispatch() {
///     FCL_PROF_SCOPE("serve.dispatch");     // RAII; ~no-op when disabled
///     ...
///   }
///   static fcl::prof::Counter C("sim.events_scheduled");
///   C.add();                                 // relaxed atomic when enabled
///
/// Phases nest by dynamic scope: a "fcl.chunk_launch" entered while
/// "sim.run" is open aggregates under the path "sim.run/fcl.chunk_launch",
/// so the snapshot is a tree of where wall time actually went. Exclusive
/// (self) time is inclusive time minus the inclusive time of all children.
///
/// The profiler is process-global and disabled by default; the disabled
/// fast path is one relaxed atomic load. When enabled, a scope costs two
/// monotonic clock reads plus two relaxed atomic adds on a per-thread
/// tree node - cheap enough to leave in per-chunk and per-request paths.
/// perfbench reports the measured cost as `prof.overhead_frac` (not gated).
///
/// Thread safety: each thread owns its phase tree (no cross-thread
/// contention on the hot path); snapshot() merges all threads' trees by
/// path under per-thread structure locks, so it is safe to call from any
/// thread, including concurrently with scope activity elsewhere.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PROF_PROFILER_H
#define FCL_PROF_PROFILER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fcl {
namespace prof {

/// Host monotonic clock, in nanoseconds. Never simulated time.
int64_t wallNowNs();

namespace detail {
/// Raw timestamp for scope timing: TSC ticks on x86-64 (a register read,
/// ~4x cheaper than clock_gettime), monotonic-clock nanoseconds elsewhere.
/// Converted to nanoseconds at snapshot time against a wall-clock
/// calibration window, so scopes pay the cheap read and snapshots pay the
/// arithmetic.
int64_t tickNow();
} // namespace detail

/// One aggregated phase in a snapshot.
struct PhaseStats {
  /// Slash-joined dynamic path, e.g. "sim.run/fcl.chunk_launch".
  std::string Path;
  /// Leaf name (the FCL_PROF_SCOPE argument).
  std::string Name;
  /// Nesting depth (top-level phases are 0).
  int Depth = 0;
  uint64_t Count = 0;
  int64_t InclusiveNs = 0;
  /// Inclusive minus the inclusive time of all child phases (>= 0).
  int64_t ExclusiveNs = 0;

  double inclusiveMs() const { return static_cast<double>(InclusiveNs) * 1e-6; }
  double exclusiveMs() const { return static_cast<double>(ExclusiveNs) * 1e-6; }
};

/// A merged, point-in-time view of everything the profiler collected.
struct Snapshot {
  /// All phases merged across threads, sorted by Path (i.e. tree order).
  std::vector<PhaseStats> Phases;
  /// All churn counters merged across threads, by name.
  std::map<std::string, uint64_t> Counters;

  /// The N phases with the largest exclusive time, descending (ties by
  /// path so the order is reproducible).
  std::vector<PhaseStats> topByExclusive(size_t N) const;

  /// Human-readable tree + counters; \p TopN != 0 appends a top-N
  /// self-time table.
  std::string renderText(size_t TopN = 0) const;
};

namespace detail {

/// One node of a thread's phase tree. Stats are relaxed atomics so the
/// owner thread updates them without locking while snapshot() reads them.
struct PhaseNode {
  const char *Name = nullptr;
  PhaseNode *Parent = nullptr;
  std::vector<std::unique_ptr<PhaseNode>> Children;
  std::atomic<uint64_t> Count{0};
  /// In tickNow() units; converted to ns when snapshotted.
  std::atomic<int64_t> InclusiveTicks{0};
};

/// Per-thread profiler state: the phase tree, the current position in it,
/// and this thread's counter cells. StructureLock guards tree/counter
/// *shape* mutations (child creation) against concurrent snapshots; the
/// owner thread reads the shape without locking (it is the only writer).
struct ThreadState {
  std::mutex StructureLock;
  PhaseNode Root;
  PhaseNode *Cur = &Root;
};

} // namespace detail

/// The process-global profiler.
class Profiler {
public:
  static Profiler &instance();

  /// Turns collection on or off. Scopes opened while disabled record
  /// nothing even if the profiler is enabled before they close.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Merges every thread's tree and counters into one deterministic view.
  Snapshot snapshot() const;

  /// Zeroes all collected stats (tree shape is kept so open scopes stay
  /// valid; call between measurement phases, not mid-scope, for exact
  /// numbers).
  void reset();

  // Internal: the calling thread's state (created on first use).
  detail::ThreadState &threadState();

  // Internal: registers a named counter cell (one per Counter object;
  // same-name cells are summed in the snapshot). The cell outlives every
  // caller - registration is permanent for the process lifetime.
  std::atomic<uint64_t> *registerCounter(const char *Name);

private:
  Profiler();

  /// Nanoseconds per tickNow() unit, measured over the window from
  /// construction to the snapshot (1.0 on non-TSC hosts).
  double nsPerTick() const;

  std::atomic<bool> Enabled{false};
  int64_t CalTick0 = 0;
  int64_t CalNs0 = 0;
  mutable std::mutex ThreadsLock;
  std::vector<std::shared_ptr<detail::ThreadState>> Threads;
  mutable std::mutex CountersLock;
  std::vector<std::pair<std::string, std::unique_ptr<std::atomic<uint64_t>>>>
      NamedCounters;
};

/// RAII phase timer. Near-free when the profiler is disabled.
class ScopedPhase {
public:
  explicit ScopedPhase(const char *Name);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  detail::PhaseNode *Node = nullptr; // null when inactive
  detail::ThreadState *TS = nullptr;
  int64_t StartTicks = 0;
};

/// A named churn counter. Construct once (static local / namespace scope)
/// and add() from the hot path; disabled adds are one relaxed load.
class Counter {
public:
  explicit Counter(const char *Name);

  void add(uint64_t Delta = 1) {
    if (Profiler::instance().enabled())
      Cell->fetch_add(Delta, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> *Cell;
};

} // namespace prof
} // namespace fcl

#define FCL_PROF_CONCAT_IMPL(A, B) A##B
#define FCL_PROF_CONCAT(A, B) FCL_PROF_CONCAT_IMPL(A, B)
/// Opens a profiler phase for the rest of the enclosing scope.
#define FCL_PROF_SCOPE(NAME)                                                 \
  ::fcl::prof::ScopedPhase FCL_PROF_CONCAT(FclProfScope, __LINE__)(NAME)

#endif // FCL_PROF_PROFILER_H

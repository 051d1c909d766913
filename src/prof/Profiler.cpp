//===- prof/Profiler.cpp - Wall-clock host profiler -----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "prof/Profiler.h"

#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define FCL_PROF_HAVE_TSC 1
#endif

using namespace fcl;
using namespace fcl::prof;

int64_t fcl::prof::wallNowNs() {
  // det-lint: allow(wall-clock) host-side profiler; feeds prof output only
  auto Now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Now.time_since_epoch())
      .count();
}

int64_t detail::tickNow() {
#ifdef FCL_PROF_HAVE_TSC
  return static_cast<int64_t>(__rdtsc());
#else
  return wallNowNs();
#endif
}

namespace {

/// Reads a (tick, wall-ns) pair with the tick taken on both sides of the
/// wall read; the tightest bracket out of a few tries pins the pair to
/// the same instant even if the thread is preempted mid-read.
void sampleTickWall(int64_t &Tick, int64_t &Ns) {
  int64_t BestWidth = INT64_MAX;
  for (int I = 0; I < 8; ++I) {
    int64_t T0 = detail::tickNow();
    int64_t W = wallNowNs();
    int64_t T1 = detail::tickNow();
    if (T1 - T0 < BestWidth) {
      BestWidth = T1 - T0;
      Tick = T0 + (T1 - T0) / 2;
      Ns = W;
    }
  }
}

} // namespace

Profiler::Profiler() { sampleTickWall(CalTick0, CalNs0); }

Profiler &Profiler::instance() {
  static Profiler P;
  return P;
}

double Profiler::nsPerTick() const {
#ifdef FCL_PROF_HAVE_TSC
  // Calibrate against the monotonic clock over the whole window since
  // construction; modern x86 TSCs are constant-rate, and the long window
  // swamps any residual skew in the bracketed anchor samples.
  int64_t Tick1 = 0, Ns1 = 0;
  sampleTickWall(Tick1, Ns1);
  int64_t Ticks = Tick1 - CalTick0;
  int64_t Ns = Ns1 - CalNs0;
  if (Ticks <= 0 || Ns <= 0)
    return 1.0;
  return static_cast<double>(Ns) / static_cast<double>(Ticks);
#else
  return 1.0;
#endif
}

detail::ThreadState &Profiler::threadState() {
  // The shared_ptr keeps the state alive in the profiler's registry after
  // the thread exits, so snapshot() after a join still sees its numbers.
  thread_local std::shared_ptr<detail::ThreadState> TS = [this] {
    auto S = std::make_shared<detail::ThreadState>();
    std::lock_guard<std::mutex> Lock(ThreadsLock);
    Threads.push_back(S);
    return S;
  }();
  return *TS;
}

std::atomic<uint64_t> *Profiler::registerCounter(const char *Name) {
  std::lock_guard<std::mutex> Lock(CountersLock);
  NamedCounters.emplace_back(Name, std::make_unique<std::atomic<uint64_t>>(0));
  return NamedCounters.back().second.get();
}

namespace {

struct MergedNode {
  uint64_t Count = 0;
  int64_t InclusiveTicks = 0;
  int64_t ChildInclusiveTicks = 0;
  int Depth = 0;
  std::string Name;
};

void mergeTree(const detail::PhaseNode &N, const std::string &Path, int Depth,
               std::map<std::string, MergedNode> &Out) {
  for (const auto &ChildPtr : N.Children) {
    const detail::PhaseNode &C = *ChildPtr;
    std::string ChildPath =
        Path.empty() ? std::string(C.Name) : Path + "/" + C.Name;
    MergedNode &M = Out[ChildPath];
    uint64_t Count = C.Count.load(std::memory_order_relaxed);
    int64_t Incl = C.InclusiveTicks.load(std::memory_order_relaxed);
    M.Count += Count;
    M.InclusiveTicks += Incl;
    M.Depth = Depth;
    M.Name = C.Name;
    if (!Path.empty())
      Out[Path].ChildInclusiveTicks += Incl;
    mergeTree(C, ChildPath, Depth + 1, Out);
  }
}

} // namespace

Snapshot Profiler::snapshot() const {
  Snapshot S;
  std::map<std::string, MergedNode> Merged;
  {
    std::lock_guard<std::mutex> Lock(ThreadsLock);
    for (const auto &TS : Threads) {
      // The structure lock orders this walk against child creation on the
      // owner thread; stat loads are relaxed atomics.
      std::lock_guard<std::mutex> StructLock(TS->StructureLock);
      mergeTree(TS->Root, std::string(), 0, Merged);
    }
  }
  double NsPerTick = nsPerTick();
  auto ToNs = [NsPerTick](int64_t Ticks) {
    return static_cast<int64_t>(static_cast<double>(Ticks) * NsPerTick);
  };
  for (auto &[Path, M] : Merged) {
    PhaseStats P;
    P.Path = Path;
    P.Name = M.Name;
    P.Depth = M.Depth;
    P.Count = M.Count;
    P.InclusiveNs = ToNs(M.InclusiveTicks);
    P.ExclusiveNs = std::max<int64_t>(
        0, ToNs(M.InclusiveTicks - M.ChildInclusiveTicks));
    S.Phases.push_back(std::move(P));
  }
  {
    std::lock_guard<std::mutex> Lock(CountersLock);
    for (const auto &[Name, Cell] : NamedCounters)
      if (uint64_t V = Cell->load(std::memory_order_relaxed))
        S.Counters[Name] += V;
  }
  return S;
}

namespace {

void resetTree(detail::PhaseNode &N) {
  N.Count.store(0, std::memory_order_relaxed);
  N.InclusiveTicks.store(0, std::memory_order_relaxed);
  for (auto &C : N.Children)
    resetTree(*C);
}

} // namespace

void Profiler::reset() {
  {
    std::lock_guard<std::mutex> Lock(ThreadsLock);
    for (const auto &TS : Threads) {
      std::lock_guard<std::mutex> StructLock(TS->StructureLock);
      resetTree(TS->Root);
    }
  }
  std::lock_guard<std::mutex> Lock(CountersLock);
  for (auto &[Name, Cell] : NamedCounters)
    Cell->store(0, std::memory_order_relaxed);
}

ScopedPhase::ScopedPhase(const char *Name) {
  Profiler &P = Profiler::instance();
  if (!P.enabled())
    return;
  TS = &P.threadState();
  detail::PhaseNode *Cur = TS->Cur;
  // Fast path: find the child by site-pointer identity, falling back to a
  // string compare so the same name from two translation units merges.
  detail::PhaseNode *Child = nullptr;
  for (const auto &C : Cur->Children) {
    if (C->Name == Name || std::strcmp(C->Name, Name) == 0) {
      Child = C.get();
      break;
    }
  }
  if (!Child) {
    // Shape mutation: exclude a concurrent snapshot walk.
    std::lock_guard<std::mutex> Lock(TS->StructureLock);
    auto New = std::make_unique<detail::PhaseNode>();
    New->Name = Name;
    New->Parent = Cur;
    Child = New.get();
    Cur->Children.push_back(std::move(New));
  }
  TS->Cur = Child;
  Node = Child;
  StartTicks = detail::tickNow();
}

ScopedPhase::~ScopedPhase() {
  if (!Node)
    return;
  int64_t Dur = detail::tickNow() - StartTicks;
  Node->Count.fetch_add(1, std::memory_order_relaxed);
  Node->InclusiveTicks.fetch_add(Dur, std::memory_order_relaxed);
  TS->Cur = Node->Parent;
}

Counter::Counter(const char *Name)
    : Cell(Profiler::instance().registerCounter(Name)) {}

std::vector<PhaseStats> Snapshot::topByExclusive(size_t N) const {
  std::vector<PhaseStats> Out = Phases;
  std::sort(Out.begin(), Out.end(),
            [](const PhaseStats &A, const PhaseStats &B) {
              if (A.ExclusiveNs != B.ExclusiveNs)
                return A.ExclusiveNs > B.ExclusiveNs;
              return A.Path < B.Path;
            });
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

std::string Snapshot::renderText(size_t TopN) const {
  std::string Out;
  if (Phases.empty() && Counters.empty())
    return "profile: no samples collected\n";
  Out += formatString("%-48s %10s %12s %12s\n", "phase", "count", "incl-ms",
                      "self-ms");
  for (const PhaseStats &P : Phases) {
    std::string Indented(static_cast<size_t>(P.Depth) * 2, ' ');
    Indented += P.Name;
    Out += formatString("%-48s %10llu %12.3f %12.3f\n", Indented.c_str(),
                        static_cast<unsigned long long>(P.Count),
                        P.inclusiveMs(), P.exclusiveMs());
  }
  if (TopN) {
    Out += formatString("top %zu by self time:\n", TopN);
    for (const PhaseStats &P : topByExclusive(TopN))
      Out += formatString("  %-46s %12.3f ms  x%llu\n", P.Path.c_str(),
                          P.exclusiveMs(),
                          static_cast<unsigned long long>(P.Count));
  }
  if (!Counters.empty()) {
    Out += "counters:\n";
    for (const auto &[Name, V] : Counters)
      Out += formatString("  %-46s %12llu\n", Name.c_str(),
                          static_cast<unsigned long long>(V));
  }
  return Out;
}

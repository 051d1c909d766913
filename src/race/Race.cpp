//===- race/Race.cpp - Happens-before would-be-race analyzer --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "race/Race.h"

#include "support/Error.h"

#include <algorithm>
#include <sstream>

namespace fcl::race {

std::atomic<bool> Analyzer::Enabled{false};

namespace {
/// The calling thread's slot in Analyzer::Threads, valid while TlsGen
/// matches Analyzer::ThreadGen. Plain thread_locals (not thread ids) so
/// nothing nondeterministic ever feeds analysis results.
thread_local uint64_t TlsGen = 0;
thread_local size_t TlsSlot = 0;
} // namespace

const char *findingKindName(FindingKind Kind) {
  switch (Kind) {
  case FindingKind::UnorderedAccess:
    return "unordered_access";
  case FindingKind::ReentrantCallback:
    return "reentrant_callback";
  case FindingKind::LeaseOverlap:
    return "lease_overlap";
  }
  FCL_UNREACHABLE("unknown FindingKind");
}

Analyzer &Analyzer::instance() {
  static Analyzer A;
  return A;
}

void Analyzer::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

void Analyzer::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  resetLocked();
}

uint32_t Analyzer::allocDomain() {
  std::lock_guard<std::mutex> Lock(Mu);
  return NextDomain++;
}

namespace {
/// The first entry of sorted \p E whose key is not below \p Key.
template <typename EntriesT> auto seek(EntriesT &E, uint32_t Key) {
  return std::lower_bound(
      E.begin(), E.end(), Key,
      [](const auto &Entry, uint32_t K) { return Entry.first < K; });
}

/// The value at \p Key in sorted \p E; 0 when absent.
template <typename EntriesT> uint64_t lookup(const EntriesT &E, uint32_t Key) {
  auto It = seek(E, Key);
  return It != E.end() && It->first == Key ? It->second : 0;
}

/// Raises the value at \p Key in sorted \p E to at least \p V.
template <typename EntriesT>
void raise(EntriesT &E, uint32_t Key, uint64_t V) {
  auto It = seek(E, Key);
  if (It == E.end() || It->first != Key)
    E.insert(It, {Key, V});
  else if (It->second < V)
    It->second = V;
}

/// Copy-on-write access to the clock behind \p P (sole owners mutate in
/// place).
template <typename ClockT>
ClockT &mutableClock(std::shared_ptr<const ClockT> &P) {
  if (P.use_count() > 1)
    P = std::make_shared<ClockT>(*P);
  return const_cast<ClockT &>(*P);
}
} // namespace

uint32_t Analyzer::newStrandLocked() {
  History.emplace_back();
  StrandRefs.push_back(0);
  return static_cast<uint32_t>(History.size() - 1);
}

Analyzer::Task Analyzer::makeRootLocked(size_t Slot) {
  Task Root;
  Root.Seq = 0;
  Root.Strand = newStrandLocked();
  refStrandLocked(Root.Strand); // Roots are never popped.
  if (Slot == 0) {
    // The host root: strand 0, epoch 1, begun at version 0 (everything
    // covers it - the host schedules the first events).
    History[0].push_back(HistEntry{0, 0, true});
    Root.Epoch = 1;
  } else {
    // Worker-thread roots begin at a real version in no domain, so they
    // are covered only by explicit clock/channel edges, never by drains.
    Root.Epoch = beginEpochLocked(Root.Strand, NoDomain);
  }
  Root.C = std::make_shared<Clock>(Clock{{{Root.Strand, Root.Epoch}}, {}});
  return Root;
}

void Analyzer::resetLocked() {
  Threads.clear();
  ++ThreadGen;
  PendingBySeq.clear();
  History.clear();
  StrandRefs.clear();
  Sections.clear();
  Channels.clear();
  Leases.clear();
  Guards.clear();
  Shadows.clear();
  Findings.clear();
  FindingCount.store(0, std::memory_order_relaxed);
  Sum = Summary();
  GlobalVersion = 0;
  // The resetting thread is the host (slot 0).
  TlsGen = ThreadGen;
  TlsSlot = 0;
  auto TS = std::make_unique<ThreadState>();
  TS->Slot = 0;
  TS->Stack.push_back(makeRootLocked(0));
  Threads.push_back(std::move(TS));
}

Analyzer::ThreadState &Analyzer::stateLocked() {
  if (TlsGen != ThreadGen) {
    TlsGen = ThreadGen;
    TlsSlot = Threads.size();
    auto TS = std::make_unique<ThreadState>();
    TS->Slot = TlsSlot;
    TS->Stack.push_back(makeRootLocked(TlsSlot));
    Threads.push_back(std::move(TS));
  }
  return *Threads[TlsSlot];
}

Analyzer::Task &Analyzer::currentLocked() {
  ThreadState &S = stateLocked();
  FCL_CHECK(!S.Stack.empty(), "race analyzer has no current task");
  return S.Stack.back();
}

std::string Analyzer::TaskRef::label() const {
  if (Seq != 0)
    return "event#" + std::to_string(Seq);
  return Slot == 0 ? "host" : "thread#" + std::to_string(Slot);
}

Analyzer::TaskRef Analyzer::currentRefLocked() {
  ThreadState &S = stateLocked();
  return TaskRef{S.Stack.back().Seq, S.Slot};
}

uint64_t Analyzer::beginEpochLocked(uint32_t Strand, uint32_t Domain) {
  std::vector<HistEntry> &H = History[Strand];
  bool OneDomain = H.empty() || H.back().Version == 0 ||
                   (H.back().OneDomain && H.back().Domain == Domain);
  H.push_back(HistEntry{++GlobalVersion, Domain, OneDomain});
  return H.size();
}

const Analyzer::HistEntry *Analyzer::beginOf(uint32_t Strand,
                                             uint64_t Epoch) const {
  if (Strand >= History.size() || Epoch == 0 ||
      Epoch > History[Strand].size())
    return nullptr;
  return &History[Strand][Epoch - 1];
}

bool Analyzer::coversLocked(const Task &T, uint32_t Strand,
                            uint64_t Epoch) const {
  if (T.Strand == Strand && T.Epoch >= Epoch)
    return true;
  if (lookup(T.C->Explicit, Strand) >= Epoch)
    return true;
  return drainedLocked(T.C->Drains, Strand, Epoch, /*AndEarlier=*/false);
}

bool Analyzer::drainedLocked(const Entries &Drains, uint32_t Strand,
                             uint64_t Epoch, bool AndEarlier) const {
  // Drain joins: the task waited for everything the access's domain had
  // begun up to its watermark version. Never crosses domains - another
  // simulator's events may still be running on another thread. Versions
  // grow with epochs, so the drain covers the strand's earlier epochs too
  // when they all began in the same domain.
  const HistEntry *E = beginOf(Strand, Epoch);
  if (!E)
    return false;
  if (E->Version == 0)
    return true; // the pre-history host root
  return (!AndEarlier || E->OneDomain) &&
         lookup(Drains, E->Domain) >= E->Version;
}

void Analyzer::pruneLocked(Clock &C) {
  std::erase_if(C.Explicit, [&](const auto &E) {
    return StrandRefs[E.first] == 0 ||
           drainedLocked(C.Drains, E.first, E.second, /*AndEarlier=*/true);
  });
  Sum.MaxClockEntries = std::max<uint64_t>(Sum.MaxClockEntries,
                                           C.Explicit.size());
}

void Analyzer::mergeLocked(Clock &Dst, const Clock &Src) {
  for (const auto &[Domain, V] : Src.Drains)
    raise(Dst.Drains, Domain, V);
  for (const auto &[Strand, Epoch] : Src.Explicit)
    raise(Dst.Explicit, Strand, Epoch);
  pruneLocked(Dst);
}

void Analyzer::joinLocked(ClockPtr &Dst, const ClockPtr &Src) {
  if (!Src || Src == Dst)
    return;
  if (!Dst) {
    Dst = Src;
    return;
  }
  // Clone only when the source actually advances the clock (the common
  // case is the same task re-publishing an unchanged clock).
  auto Advances = [&] {
    for (const auto &[Domain, V] : Src->Drains)
      if (V > lookup(Dst->Drains, Domain))
        return true;
    for (const auto &[Strand, Epoch] : Src->Explicit)
      if (Epoch > lookup(Dst->Explicit, Strand) &&
          !drainedLocked(Dst->Drains, Strand, Epoch, /*AndEarlier=*/true))
        return true;
    return false;
  };
  if (Advances())
    mergeLocked(mutableClock(Dst), *Src);
}

void Analyzer::onSchedule(uint64_t Seq, uint32_t Domain) {
  std::lock_guard<std::mutex> Lock(Mu);
  Task &Cur = currentLocked();
  Pending P;
  P.At = Cur.C;
  // Strand compression: the first event a task schedules continues the
  // task's strand at the next epoch, so completion chains reuse one
  // strand and clocks stay small.
  if (!Cur.ForkedContinuation) {
    Cur.ForkedContinuation = true;
    P.TakesParentStrand = true;
    P.ParentStrand = Cur.Strand;
    refStrandLocked(Cur.Strand); // Handed to the event's task at begin.
  }
  PendingBySeq.emplace(std::make_pair(Domain, Seq), std::move(P));
}

void Analyzer::onEventBegin(uint64_t Seq, uint32_t Domain) {
  std::lock_guard<std::mutex> Lock(Mu);
  ThreadState &S = stateLocked();
  // Program order: the event callback runs on the pumping task's OS
  // thread, after everything that task did before (re-)entering the run
  // loop - a real happens-before edge. This is what orders a worker's
  // next-epoch events after the cluster master's barrier-time mutations
  // (the worker root joins the master's channel, then pumps the loop).
  ClockPtr PumpedAfter = S.Stack.back().C;
  Pending P;
  auto It = PendingBySeq.find(std::make_pair(Domain, Seq));
  if (It != PendingBySeq.end()) {
    P = std::move(It->second);
    PendingBySeq.erase(It);
  }
  // Events scheduled before the analyzer was enabled have no snapshot and
  // start as roots (P left default: fresh strand, empty clock).
  Task T;
  T.Seq = Seq;
  if (P.TakesParentStrand) {
    T.Strand = P.ParentStrand;
  } else {
    T.Strand = newStrandLocked();
    refStrandLocked(T.Strand);
  }
  T.Epoch = beginEpochLocked(T.Strand, Domain);
  auto C = P.At ? std::make_shared<Clock>(*P.At) : std::make_shared<Clock>();
  raise(C->Explicit, T.Strand, T.Epoch);
  mergeLocked(*C, *PumpedAfter);
  T.C = std::move(C);
  S.Stack.push_back(std::move(T));
}

void Analyzer::onEventEnd() {
  std::lock_guard<std::mutex> Lock(Mu);
  ThreadState &S = stateLocked();
  if (S.Stack.size() > 1) {
    unrefStrandLocked(S.Stack.back().Strand);
    S.Stack.pop_back();
  }
}

void Analyzer::onDrainExit(uint32_t Domain) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Returning from a blocking run loop means every event this simulator
  // began so far has finished (or is an ancestor on this very stack):
  // join them all. O(1) thanks to the begin-version history.
  Task &Cur = currentLocked();
  if (lookup(Cur.C->Drains, Domain) >= GlobalVersion)
    return;
  Clock &C = mutableClock(Cur.C);
  raise(C.Drains, Domain, GlobalVersion);
  pruneLocked(C);
}

void Analyzer::sectionEnter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  Task &Cur = currentLocked();
  auto It = Sections.find(Name);
  if (It != Sections.end())
    joinLocked(Cur.C, It->second);
}

void Analyzer::sectionExit(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Accumulate rather than overwrite: a mutex acquire happens-after EVERY
  // prior release, and a task nested on the same stack (a blocking call
  // that drains the loop) may publish before the task below it does, so
  // last-writer-wins would drop that publish.
  joinLocked(Sections[Name], currentLocked().C);
}

void Analyzer::hbPublish(const std::string &Chan) {
  std::lock_guard<std::mutex> Lock(Mu);
  joinLocked(Channels[Chan], currentLocked().C);
}

void Analyzer::hbJoin(const std::string &Chan) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Channels.find(Chan);
  if (It != Channels.end())
    joinLocked(currentLocked().C, It->second);
}

void Analyzer::leaseAcquire(const std::string &Name,
                            const std::string &Holder) {
  std::lock_guard<std::mutex> Lock(Mu);
  LeaseState &L = Leases[Name];
  if (L.Held) {
    std::ostringstream Os;
    Os << "lease '" << Name << "' acquired by " << currentRefLocked().label()
       << " ('"
       << Holder << "') while still held by '" << L.Holder
       << "' (overlapping ownership would corrupt the resource on OS "
          "threads)";
    recordFindingLocked(FindingKind::LeaseOverlap, Name, Os.str());
  } else {
    joinLocked(currentLocked().C, L.LastRelease);
  }
  L.Held = true;
  L.Holder = Holder.empty() ? currentRefLocked().label() : Holder;
}

void Analyzer::leaseRelease(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  LeaseState &L = Leases[Name];
  L.Held = false;
  // Task clocks are pruned whenever they are built, so the release
  // shares the releasing task's clock as is.
  L.LastRelease = currentLocked().C;
}

void Analyzer::guardEnter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  GuardState &G = Guards[Name];
  if (G.Depth > 0) {
    std::ostringstream Os;
    Os << "non-reentrant scope '" << Name
       << "' re-entered while active: first entered by " << G.Holder.label()
       << ", re-entered by " << currentRefLocked().label()
       << " (a callback recursed into its own scope)";
    recordFindingLocked(FindingKind::ReentrantCallback, Name, Os.str());
  } else {
    G.Holder = currentRefLocked();
  }
  ++G.Depth;
}

void Analyzer::guardExit(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  GuardState &G = Guards[Name];
  if (G.Depth > 0)
    --G.Depth;
}

void Analyzer::checkAccessLocked(Shadow &Sh, const std::string &Object,
                                 const char *What, bool IsWrite) {
  Task &Cur = currentLocked();
  TaskRef By = currentRefLocked();
  auto Complain = [&](const Access &Prev, const char *PrevOp,
                      const char *CurOp) {
    std::ostringstream Os;
    Os << "conflicting accesses to '" << Object << "': " << PrevOp << " '"
       << Prev.What << "' by " << Prev.By.label() << " and " << CurOp << " '"
       << What << "' by " << By.label()
       << " are unordered by happens-before (a data race once simulators "
          "move onto OS threads)";
    recordFindingLocked(FindingKind::UnorderedAccess, Object, Os.str());
  };
  if (Sh.HasWrite &&
      !coversLocked(Cur, Sh.LastWrite.Strand, Sh.LastWrite.Epoch))
    Complain(Sh.LastWrite, "write", IsWrite ? "write" : "read");
  if (IsWrite) {
    for (const auto &[Strand, R] : Sh.Reads)
      if (!coversLocked(Cur, R.Strand, R.Epoch))
        Complain(R, "read", "write");
    refStrandLocked(Cur.Strand);
    unrefRecordsLocked(Sh);
    Sh.HasWrite = true;
    Sh.LastWrite = Access{Cur.Strand, Cur.Epoch, By, What};
    Sh.Reads.clear();
  } else {
    auto [It, New] = Sh.Reads.try_emplace(Cur.Strand);
    if (New)
      refStrandLocked(Cur.Strand);
    It->second = Access{Cur.Strand, Cur.Epoch, By, What};
  }
}

void Analyzer::unrefRecordsLocked(const Shadow &Sh) {
  if (Sh.HasWrite)
    unrefStrandLocked(Sh.LastWrite.Strand);
  for (const auto &[Strand, R] : Sh.Reads)
    unrefStrandLocked(Strand);
}

void Analyzer::sharedWrite(const std::string &Object, const char *What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Sum.AccessesChecked;
  checkAccessLocked(Shadows[Object], Object, What, /*IsWrite=*/true);
}

void Analyzer::sharedRead(const std::string &Object, const char *What) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Sum.AccessesChecked;
  checkAccessLocked(Shadows[Object], Object, What, /*IsWrite=*/false);
}

void Analyzer::forgetObject(const std::string &Object) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Shadows.find(Object);
  if (It == Shadows.end())
    return;
  unrefRecordsLocked(It->second);
  Shadows.erase(It);
}

void Analyzer::recordFindingLocked(FindingKind Kind, const std::string &Object,
                                   std::string Message) {
  auto Key = std::make_pair(static_cast<int>(Kind), Object);
  auto It = Findings.find(Key);
  if (It != Findings.end()) {
    ++It->second.Repeats;
  } else {
    Finding F;
    F.Kind = Kind;
    F.Object = Object;
    F.Message = std::move(Message);
    Findings.emplace(std::move(Key), std::move(F));
  }
  FindingCount.fetch_add(1, std::memory_order_relaxed);
}

bool Analyzer::hasFindings() const {
  return FindingCount.load(std::memory_order_relaxed) != 0;
}

std::vector<Finding> Analyzer::findings() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Finding> Out;
  Out.reserve(Findings.size());
  for (const auto &[Key, F] : Findings)
    Out.push_back(F);
  return Out;
}

std::vector<Finding> Analyzer::takeFindings() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Finding> Out;
  Out.reserve(Findings.size());
  for (const auto &[Key, F] : Findings)
    Out.push_back(F);
  Findings.clear();
  FindingCount.store(0, std::memory_order_relaxed);
  return Out;
}

Summary Analyzer::summary() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Sum;
}

} // namespace fcl::race

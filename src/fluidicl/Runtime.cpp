//===- fluidicl/Runtime.cpp - The FluidiCL runtime -------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fluidicl/Runtime.h"

#include "fluidicl/KernelExec.h"
#include "kern/Registry.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Log.h"
#include "trace/Tracer.h"

#include <atomic>
#include <cstring>
#include <optional>

using namespace fcl;
using namespace fcl::fluidicl;

std::string Options::validate() const {
  // Negated so that NaN fails too.
  if (!(InitialChunkPct > 0 && InitialChunkPct <= 100))
    return formatString("--chunk must be in (0, 100] (got %g)",
                        InitialChunkPct);
  if (!(StepPct >= 0))
    return formatString("--step must be >= 0 (got %g)", StepPct);
  return "";
}

Runtime::Runtime(mcl::Context &Ctx, Options Opts)
    : HeteroRuntime(Ctx), Opts(Opts), Diags(Opts.Check),
      GpuAppQueue(Ctx.createQueue(Ctx.gpu(), "fcl-gpu-app")),
      CpuQueue(Ctx.createQueue(Ctx.cpu(), "fcl-cpu")),
      HdQueue(Ctx.createQueue(Ctx.gpu(), "fcl-hd")),
      DhQueue(Ctx.createQueue(Ctx.gpu(), "fcl-dh")),
      StatusBuf(Ctx.createBuffer(Ctx.gpu(), 64, "fcl-status")),
      Pool(Ctx, Ctx.gpu(), Opts.BufferPool) {
  std::string Invalid = Opts.validate();
  FCL_CHECK(Invalid.empty(), Invalid.c_str());
  // The threading plan for multi-simulator work is one lock per runtime:
  // every API entry point and completion callback declares this section,
  // and the race analyzer checks all shared-state accesses stay inside it.
  // Cluster workers build runtimes on their own threads, so the id counter
  // is atomic: two runtimes sharing a name would look like one racy object.
  static std::atomic<uint64_t> NextRaceId{0};
  RaceSec = "fcl.rt#" +
            std::to_string(NextRaceId.fetch_add(1, std::memory_order_relaxed));
  Versions.setRaceObject(RaceSec + ".versions");
  Pool.setRaceObject(RaceSec + ".pool");
  Diags.setStats(&Stats);
  // Violations show up as zero-duration slices on a "Check" lane (race
  // findings on a "Race" lane) so they line up with the launch timeline
  // in the trace viewer.
  Diags.setObserver([this](const check::Diag &D) {
    if (trace::Tracer *T = this->Ctx.tracer()) {
      const char *Name = check::diagKindName(D.Kind);
      const char *Lane =
          std::strncmp(Name, "race_", 5) == 0 ? "Race" : "Check";
      T->record(Lane, Name, this->Ctx.now(), this->Ctx.now(), D.str());
    }
  });
  if (Diags.enabled())
    Checker = std::make_unique<check::ProtocolChecker>(Diags);
  if (!Ctx.simulator().inEvent())
    Ctx.hostThen(setupTime(), [] {});
}

Runtime::~Runtime() {
  finish();
  if (race::Analyzer::enabled()) {
    race::Analyzer::instance().forgetObject(RaceSec + ".versions");
    race::Analyzer::instance().forgetObject(RaceSec + ".pool");
  }
}

Duration Runtime::setupTime() const {
  return Ctx.machine().Host.bufferCreateTime(StatusBuf->size());
}

Runtime::DualBuffer &Runtime::buf(runtime::BufferId Id) {
  FCL_CHECK(Id < Buffers.size(), "invalid buffer id");
  return *Buffers[Id];
}

runtime::BufferId Runtime::createBuffer(uint64_t Size,
                                        std::string DebugName) {
  std::optional<runtime::BufferId> Id;
  createBufferAsync(Size, std::move(DebugName),
                    [&Id](runtime::BufferId B) { Id = B; });
  FCL_CHECK(Id.has_value(), "blocking createBuffer inside an event");
  return *Id;
}

void Runtime::createBufferAsync(uint64_t Size, std::string DebugName,
                                std::function<void(runtime::BufferId)> Then) {
  auto Create = [this, Size, DebugName = std::move(DebugName),
                 Then = std::move(Then)] {
    auto B = std::make_unique<DualBuffer>();
    B->Size = Size;
    B->Name = DebugName;
    B->CpuBuf = Ctx.createBuffer(Ctx.cpu(), Size, DebugName + ".cpu");
    B->GpuBuf = Ctx.createBuffer(Ctx.gpu(), Size, DebugName + ".gpu");
    Buffers.push_back(std::move(B));
    uint32_t VIdx = Versions.addBuffer();
    FCL_CHECK(VIdx == Buffers.size() - 1, "version index out of sync");
    Then(static_cast<runtime::BufferId>(VIdx));
  };
  // Section 4.1: buffers are created for both the CPU and the GPU.
  const hw::HostModel &Host = Ctx.machine().Host;
  Steps.then(Host.ApiCallOverhead + Host.bufferCreateTime(Size) * 2,
           std::move(Create));
}

void Runtime::writeBuffer(runtime::BufferId Id, const void *Src,
                          uint64_t Bytes) {
  bool Done = false;
  writeBufferAsync(Id, Src, Bytes, [&Done] { Done = true; });
  FCL_CHECK(Done, "blocking writeBuffer inside an event");
}

void Runtime::writeBufferAsync(runtime::BufferId Id, const void *Src,
                               uint64_t Bytes, std::function<void()> Then) {
  auto Write = [this, Id, Src, Bytes, Then = std::move(Then)] {
    DualBuffer &B = buf(Id);
    FCL_CHECK(Bytes <= B.Size, "write overruns buffer");
    // Section 4.1: one clEnqueueWriteBuffer becomes two, one per device.
    GpuAppQueue->enqueueWrite(*B.GpuBuf, Src, Bytes);
    B.CpuLanding = CpuQueue->enqueueWrite(*B.CpuBuf, Src, Bytes);
    Versions.noteHostWrite(Id, NextKernelId);
    noteVersion(Id);
    Then();
  };
  Steps.then(Ctx.machine().Host.ApiCallOverhead, std::move(Write));
}

void Runtime::readBuffer(runtime::BufferId Id, void *Dst, uint64_t Bytes) {
  bool Done = false;
  readBufferAsync(Id, Dst, Bytes, [&Done] { Done = true; });
  Ctx.simulator().runWhileNot([&Done] { return Done; });
  FCL_CHECK(Done, "buffer read stalled");
}

void Runtime::launchKernel(const std::string &KernelName,
                           const kern::NDRange &Range,
                           const std::vector<runtime::KArg> &Args) {
  bool Done = false;
  launchKernelAsync(KernelName, Range, Args, [&Done] { Done = true; });
  // Block the application until the kernel is complete (paper section 7:
  // kernel execution calls are blocking).
  Ctx.simulator().runWhileNot([&Done] { return Done; });
  FCL_CHECK(Done, "kernel execution stalled");
}

void Runtime::launchKernelAsync(const std::string &KernelName,
                                const kern::NDRange &Range,
                                const std::vector<runtime::KArg> &Args,
                                std::function<void()> OnDone) {
  const kern::KernelInfo &Kernel = kern::Registry::builtin().get(KernelName);
  FCL_CHECK(Kernel.Args.size() == Args.size(), "argument arity mismatch");
  auto Launch = [this, &Kernel, Range, Args, OnDone = std::move(OnDone)] {
    auto Exec = std::make_shared<KernelExec>(*this, Kernel, Range, Args);
    Execs.push_back(Exec);
    Exec->start(OnDone);
  };
  Steps.then(Ctx.machine().Host.ApiCallOverhead, std::move(Launch));
}

void Runtime::readBufferAsync(runtime::BufferId Id, void *Dst, uint64_t Bytes,
                              std::function<void()> OnDone) {
  auto Route = [this, Id, Dst, Bytes, OnDone = std::move(OnDone)] {
    DualBuffer &B = buf(Id);
    FCL_CHECK(Bytes <= B.Size, "read overruns buffer");
    // Section 6.2: serve the read from the CPU when its copy is current -
    // either the DH stage already brought the data back or the CPU executed
    // all work-groups.
    if (Opts.DataLocationTracking && Versions.cpuCurrent(Id)) {
      // Wait only for the command that lands this buffer's CPU data (host
      // write or DH transfer) - never for unrelated trailing subkernels.
      auto Copy = [&B, Dst, Bytes, OnDone] {
        if (Dst && B.CpuBuf->backed())
          std::memcpy(Dst, B.CpuBuf->data(), Bytes);
        OnDone();
      };
      auto Fin = [this, Bytes, Copy] {
        Stats.add("reads_from_cpu");
        Stats.add("reads_from_cpu_bytes", Bytes);
        Steps.then(Ctx.machine().Host.memcpyTime(Bytes), Copy);
      };
      if (B.CpuLanding && !B.CpuLanding->isComplete())
        B.CpuLanding->onComplete(Fin);
      else
        Fin();
      return;
    }
    // Otherwise read from the GPU, which always holds the most recent
    // version once the app-queue merges drain (in-order queue).
    Stats.add("reads_from_gpu");
    Stats.add("reads_from_gpu_bytes", Bytes);
    mcl::EventPtr Done =
        GpuAppQueue->enqueueRead(*B.GpuBuf, Dst, Bytes, 0, /*Blocking=*/false);
    Done->onComplete(OnDone);
  };
  Steps.then(Ctx.machine().Host.ApiCallOverhead, std::move(Route));
}

void Runtime::finish() {
  race::Section RaceS(RaceSec);
  // Drain until every queue is idle and every DH transfer has landed.
  // Queues can feed each other (subkernel completion enqueues hd writes),
  // so iterate to a fixed point.
  for (int Round = 0; Round < 64; ++Round) {
    GpuAppQueue->finish();
    CpuQueue->finish();
    HdQueue->finish();
    DhQueue->finish();
    bool DhPending = false;
    for (const mcl::EventPtr &E : PendingDh)
      if (!E->isComplete())
        DhPending = true;
    if (!DhPending && GpuAppQueue->idle() && CpuQueue->idle() &&
        HdQueue->idle() && DhQueue->idle())
      break;
  }
  std::erase_if(PendingDh,
                [](const mcl::EventPtr &E) { return E->isComplete(); });
  FCL_CHECK(PendingDh.empty(), "DH transfers failed to drain");
  if (Checker)
    Checker->onRunFinish(Pool.inUseCount());
}

bool Runtime::quiescent() const {
  if (!Steps.idle() || !GpuAppQueue->idle() || !CpuQueue->idle() ||
      !HdQueue->idle() || !DhQueue->idle())
    return false;
  for (const mcl::EventPtr &E : PendingDh)
    if (!E->isComplete())
      return false;
  // Execs holds one reference to each; any other lives in a pending event
  // or callback that will still run the execution's code.
  for (const std::shared_ptr<KernelExec> &E : Execs)
    if (E.use_count() > 1)
      return false;
  return true;
}

std::vector<KernelStats> Runtime::kernelStats() const {
  std::vector<KernelStats> Out;
  Out.reserve(Execs.size());
  for (const auto &E : Execs)
    Out.push_back(E->stats());
  return Out;
}

void Runtime::collectStats(stats::RunReport &Report) const {
  // Subsystem counters are snapshotted here rather than accumulated inline
  // so ablations (pooling off, tracking off) naturally export zeros.
  Stats.add("bufferpool_hits", Pool.hits() - Stats.counter("bufferpool_hits"));
  Stats.add("bufferpool_misses",
            Pool.misses() - Stats.counter("bufferpool_misses"));
  Stats.add("bufferpool_bytes_created",
            Pool.bytesCreated() - Stats.counter("bufferpool_bytes_created"));
  uint64_t Lookups = Pool.hits() + Pool.misses();
  Stats.set("bufferpool_hit_rate",
            Lookups ? static_cast<double>(Pool.hits()) /
                          static_cast<double>(Lookups)
                    : 0.0);
  Stats.add("version_receives_applied",
            Versions.receivesApplied() -
                Stats.counter("version_receives_applied"));
  Stats.add("version_stale_drops",
            Versions.staleDrops() - Stats.counter("version_stale_drops"));
  HeteroRuntime::collectStats(Report);
  for (const auto &E : Execs)
    Report.Launches.push_back(E->stats());
}

void Runtime::whenCpuVersions(
    std::vector<std::pair<uint32_t, uint64_t>> Needs,
    std::function<void()> Fn) {
  race::Section RaceS(RaceSec);
  bool Satisfied = true;
  for (const auto &[Buf, Ver] : Needs)
    if (Versions.cpuVersion(Buf) < Ver)
      Satisfied = false;
  if (Satisfied) {
    Fn();
    return;
  }
  // Retry when the next outstanding DH transfer lands. Subscribing to one
  // pending event at a time is enough: every noteCpuReceived happens in a
  // DH completion (or makes the condition true synchronously).
  for (const mcl::EventPtr &E : PendingDh) {
    if (E->isComplete())
      continue;
    E->onComplete(
        [this, Needs = std::move(Needs), Fn = std::move(Fn)]() mutable {
          whenCpuVersions(std::move(Needs), std::move(Fn));
        });
    return;
  }
  FCL_FATAL("CPU copy is stale but no DH transfer is outstanding");
}

void Runtime::noteVersion(uint32_t Id) {
  if (Checker)
    Checker->onVersionNote(Id, Versions.expectedVersion(Id),
                           Versions.cpuVersion(Id));
}

void Runtime::trackDh(mcl::EventPtr E) {
  race::Section RaceS(RaceSec);
  std::erase_if(PendingDh,
                [](const mcl::EventPtr &P) { return P->isComplete(); });
  PendingDh.push_back(std::move(E));
}

//===- dag/DagExec.cpp - Compound-job DAG executor ------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dag/DagExec.h"

#include "hw/CostModel.h"
#include "kern/Registry.h"
#include "race/Race.h"
#include "support/Error.h"
#include "support/Format.h"
#include "trace/Tracer.h"
#include "work/Driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>

using namespace fcl;
using namespace fcl::dag;

DagJobExec::DagJobExec(mcl::Context &Ctx, const work::Workload &W,
                       const Graph &G, Placement Place, bool Validate,
                       DagStats *Stats, trace::Tracer *Trace)
    : Ctx(Ctx), W(W), G(G), Place(Place), Validate(Validate), Stats(Stats),
      Trace(Trace), Res(W.Buffers.size()) {
  FCL_CHECK(G.size() == W.Calls.size(), "graph does not describe workload");
  static std::atomic<uint64_t> NextRaceId{0};
  RaceSec = formatString("serve.dagexec#%llu",
                         static_cast<unsigned long long>(NextRaceId++));
}

DagJobExec::~DagJobExec() = default;

void DagJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  bool Functional = Ctx.functional();
  if (Functional) {
    Stage = work::initHostData(W);
    Init = Stage;
  }
  Qs[GpuIdx] = Ctx.createQueue(Ctx.gpu(), "dag-gpu");
  Qs[CpuIdx] = Ctx.createQueue(Ctx.cpu(), "dag-cpu");
  Bufs.resize(W.Buffers.size());
  Results.resize(W.ResultBuffers.size());
  if (Functional)
    for (size_t R = 0; R < W.ResultBuffers.size(); ++R)
      Results[R].resize(W.Buffers[W.ResultBuffers[R]].Bytes);

  Indegree.resize(G.size());
  NodeDevice.assign(G.size(), GpuIdx);
  NodeStart.resize(G.size());
  NodeEstNs.assign(G.size(), 0);
  FetchesLeft.assign(G.size(), 0);
  for (size_t I = 0; I < G.size(); ++I)
    Indegree[I] = G.node(I).Deps.size();
  if (Stats)
    ++Stats->Jobs;
  ReadyList = G.roots();
  pump();
}

void DagJobExec::pump() {
  if (Pumping)
    return;
  Pumping = true;
  while (!ReadyList.empty()) {
    // Lowest node index first: deterministic launch order regardless of
    // which completion unblocked what.
    auto It = std::min_element(ReadyList.begin(), ReadyList.end());
    size_t N = *It;
    ReadyList.erase(It);
    launchNode(N);
  }
  Pumping = false;
}

bool DagJobExec::pciePriced(size_t D) const {
  return D == GpuIdx || Ctx.machine().Cpu.BehindPcie;
}

void DagJobExec::accountTransfer(size_t D, uint64_t Bytes) {
  if (!Stats)
    return;
  ++Stats->Transfers;
  Stats->TransferBytes += Bytes;
  if (pciePriced(D))
    Stats->PcieBytes += Bytes;
}

mcl::Buffer &DagJobExec::deviceBuf(size_t B, size_t D) {
  if (!Bufs[B][D]) {
    Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
    mcl::Device &Dev = D == GpuIdx ? Ctx.gpu() : Ctx.cpu();
    Bufs[B][D] = Ctx.createBuffer(Dev, W.Buffers[B].Bytes, W.Buffers[B].Name);
  }
  return *Bufs[B][D];
}

void DagJobExec::launchNode(size_t N) {
  const Node &Nd = G.node(N);
  size_t D = pickDevice(N);
  NodeDevice[N] = D;
  NodeStart[N] = Ctx.now();
  NodeEstNs[N] = transferNs(N, D) + computeNs(N, D);
  BacklogNs[D] += NodeEstNs[N];
  bool Functional = Ctx.functional();
  Duration Api = Ctx.machine().Host.ApiCallOverhead;

  // Materialize every touched buffer on the chosen device, then stage the
  // inputs the device does not already hold. The in-order queue guarantees
  // the kernel observes all of them.
  //
  // FetchesLeft starts at one - a launch token this function holds while it
  // enqueues: hostAdvance() runs due simulator events, so a fetch issued
  // early in the loop can complete before the loop ends, and without the
  // token its callback would see a zero count and enqueue the kernel a
  // second time.
  FetchesLeft[N] = 1;
  for (size_t B : Nd.Writes)
    deviceBuf(B, D);
  for (size_t B : Nd.Reads) {
    mcl::Buffer &Dst = deviceBuf(B, D);
    uint64_t Bytes = W.Buffers[B].Bytes;
    if (Place == Placement::Residency && Res.has(B, devLoc(D))) {
      // Already resident where the node runs: the core saving.
      if (Stats) {
        ++Stats->TransfersSkipped;
        Stats->BytesSaved += Bytes;
      }
      continue;
    }
    if (Place == Placement::Blind || Res.has(B, Loc::Host)) {
      // Blind always re-uploads from the host (whose copy blind's per-node
      // readbacks keep current); residency uploads only when the host
      // holds the freshest version.
      Ctx.hostAdvance(Api);
      Qs[D]->enqueueWrite(Dst, Functional ? Stage[B].data() : nullptr, Bytes);
      accountTransfer(D, Bytes);
      Res.noteCopy(B, devLoc(D));
      continue;
    }
    // Current version lives only on the other device: fetch through the
    // host (device-to-device goes via PCIe + host memory, as in OpenCL 1.x
    // without peer copies). The kernel waits for all fetches to land.
    size_t E = 1 - D;
    FCL_CHECK(Res.has(B, devLoc(E)), "buffer resident nowhere");
    ++FetchesLeft[N];
    Ctx.hostAdvance(Api);
    mcl::EventPtr Ev = Qs[E]->enqueueRead(
        *Bufs[B][E], Functional ? Stage[B].data() : nullptr, Bytes);
    accountTransfer(E, Bytes);
    Ev->onComplete([this, N, B, D, Bytes] {
      race::Section RaceS(RaceSec);
      Res.noteCopy(B, Loc::Host);
      Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
      Qs[D]->enqueueWrite(*Bufs[B][D],
                          Ctx.functional() ? Stage[B].data() : nullptr, Bytes);
      accountTransfer(D, Bytes);
      Res.noteCopy(B, devLoc(D));
      if (--FetchesLeft[N] == 0)
        enqueueKernelNode(N);
    });
  }
  if (--FetchesLeft[N] == 0)
    enqueueKernelNode(N);
}

void DagJobExec::enqueueKernelNode(size_t N) {
  const work::KernelCall &Call = W.Calls[N];
  size_t D = NodeDevice[N];
  Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
  mcl::LaunchDesc Desc;
  Desc.Kernel = &kern::Registry::builtin().get(Call.Kernel);
  Desc.Range = Call.Range;
  for (const runtime::KArg &A : Call.Args)
    Desc.Args.push_back(A.toLaunchArg(
        [&](runtime::BufferId Id) { return Bufs[Id][D].get(); }));
  mcl::EventPtr Ev = Qs[D]->enqueueKernel(std::move(Desc));
  Ev->onComplete([this, N] {
    race::Section RaceS(RaceSec);
    onKernelComplete(N);
  });
}

void DagJobExec::onKernelComplete(size_t N) {
  const Node &Nd = G.node(N);
  size_t D = NodeDevice[N];
  BacklogNs[D] -= NodeEstNs[N];
  for (size_t B : Nd.Writes)
    Res.noteWrite(B, devLoc(D));
  if (Stats) {
    ++Stats->Nodes;
    ++(D == GpuIdx ? Stats->GpuNodes : Stats->CpuNodes);
  }
  if (Trace)
    Trace->record("Serve DAG", formatString("%s n%zu", Nd.Kernel.c_str(), N),
                  NodeStart[N], Ctx.now(),
                  formatString("dev=%s shape=%s", D == GpuIdx ? "gpu" : "cpu",
                               G.shapeName()));
  if (Place == Placement::Blind) {
    // Independent-job semantics: every output returns to the host before
    // any consumer may start, exactly what separate jobs would pay.
    bool Functional = Ctx.functional();
    for (size_t B : Nd.Writes) {
      Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
      Qs[D]->enqueueRead(*Bufs[B][D],
                         Functional ? Stage[B].data() : nullptr,
                         W.Buffers[B].Bytes);
      accountTransfer(D, W.Buffers[B].Bytes);
      Res.noteCopy(B, Loc::Host);
    }
    mcl::EventPtr Tail = Qs[D]->enqueueCallback([] {});
    Tail->onComplete([this, N] {
      race::Section RaceS(RaceSec);
      nodeRetired(N);
    });
    return;
  }
  nodeRetired(N);
}

void DagJobExec::nodeRetired(size_t N) {
  ++DoneN;
  for (size_t S : G.node(N).Succs)
    if (--Indegree[S] == 0)
      ReadyList.push_back(S);
  if (DoneN == G.size()) {
    finishDag();
    return;
  }
  pump();
}

void DagJobExec::finishDag() {
  bool Functional = Ctx.functional();
  for (size_t R = 0; R < W.ResultBuffers.size(); ++R) {
    size_t B = W.ResultBuffers[R];
    if (Res.has(B, Loc::Host)) {
      // Blind already read every output back per node; no further cost.
      if (Functional)
        Results[R] = Stage[B];
      continue;
    }
    size_t D = Res.has(B, devLoc(GpuIdx)) ? GpuIdx : CpuIdx;
    Ctx.hostAdvance(Ctx.machine().Host.ApiCallOverhead);
    Qs[D]->enqueueRead(*Bufs[B][D],
                       Functional ? Results[R].data() : nullptr,
                       W.Buffers[B].Bytes);
    accountTransfer(D, W.Buffers[B].Bytes);
    Res.noteCopy(B, Loc::Host);
  }
  TailsLeft = Qs.size();
  for (auto &Q : Qs) {
    mcl::EventPtr Tail = Q->enqueueCallback([] {});
    Tail->onComplete([this] {
      race::Section RaceS(RaceSec);
      if (--TailsLeft == 0)
        finishJob();
    });
  }
}

void DagJobExec::finishJob() {
  if (Validate && Ctx.functional())
    ValidationFailed = !serve::validateResults(W, Init, Results);
  FCL_CHECK(OnDone, "job finished twice");
  DoneFn Fn = std::move(OnDone);
  OnDone = nullptr;
  Fn();
}

// --- Placement scoring ------------------------------------------------------

double DagJobExec::xferNs(size_t D, uint64_t Bytes) const {
  const hw::Machine &M = Ctx.machine();
  if (pciePriced(D))
    return static_cast<double>(M.Pcie.transferTime(Bytes).nanos());
  return static_cast<double>(M.Host.memcpyTime(Bytes).nanos());
}

double DagJobExec::computeNs(size_t N, size_t D) const {
  const work::KernelCall &Call = W.Calls[N];
  const kern::KernelInfo &K = kern::Registry::builtin().get(Call.Kernel);
  kern::CostQuery Q;
  Q.Range = Call.Range;
  for (const runtime::KArg &A : Call.Args) {
    if (A.IsBuffer) {
      Q.Scalars.push_back(
          kern::ArgValue::buffer(nullptr, W.Buffers[A.Buf].Bytes));
    } else {
      kern::ArgValue V;
      V.IntValue = A.IntValue;
      V.FpValue = A.FpValue;
      Q.Scalars.push_back(V);
    }
  }
  hw::WorkItemCost C = K.Cost(Q);
  const hw::Machine &M = Ctx.machine();
  if (D == GpuIdx) {
    hw::AbortConfig NoAbort; // Unmodified kernel on one device.
    return static_cast<double>(
               hw::gpuWaveTime(M, C, NoAbort, Call.Range.totalItems())
                   .nanos()) +
           static_cast<double>(M.Gpu.KernelLaunchOverhead.nanos());
  }
  double Groups = static_cast<double>(Call.Range.totalGroups());
  double Units = static_cast<double>(M.Cpu.ComputeUnits);
  double PerWg = static_cast<double>(
      hw::cpuWorkGroupTime(M, C, Call.Range.itemsPerGroup()).nanos());
  return std::ceil(Groups / Units) * PerWg +
         static_cast<double>(M.Cpu.KernelLaunchOverhead.nanos()) +
         Groups * static_cast<double>(M.Cpu.WgDispatchOverhead.nanos()) /
             Units;
}

double DagJobExec::transferNs(size_t N, size_t D) const {
  // A residency-blind placer has no idea where data lives, so it cannot
  // price movement at all: it scores nodes on backlog + compute alone and
  // then eats the per-node host staging its ignorance implies.
  if (Place == Placement::Blind)
    return 0;
  const Node &Nd = G.node(N);
  double Total = 0;
  for (size_t B : Nd.Reads) {
    uint64_t Bytes = W.Buffers[B].Bytes;
    if (Res.has(B, devLoc(D)))
      continue;
    if (Res.has(B, Loc::Host)) {
      Total += xferNs(D, Bytes);
      continue;
    }
    Total += xferNs(1 - D, Bytes) + xferNs(D, Bytes); // Cross-device fetch.
  }
  return Total;
}

size_t DagJobExec::pickDevice(size_t N) const {
  double Sg = BacklogNs[GpuIdx] + transferNs(N, GpuIdx) + computeNs(N, GpuIdx);
  double Sc = BacklogNs[CpuIdx] + transferNs(N, CpuIdx) + computeNs(N, CpuIdx);
  return Sg <= Sc ? GpuIdx : CpuIdx; // Tie goes to the GPU.
}

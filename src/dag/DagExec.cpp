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

/// A fresh fcl::race critical-section name per executor: callbacks from
/// both device queues, and the executor's host steps, mutate its state.
static std::string nextRaceSec() {
  static std::atomic<uint64_t> NextRaceId{0};
  return formatString("serve.dagexec#%llu",
                      static_cast<unsigned long long>(NextRaceId++));
}

DagJobExec::DagJobExec(mcl::Context &Ctx, const work::Workload &W,
                       const Graph &G, Placement Place,
                       serve::HostData *Host, bool Validate,
                       DagStats *Stats, trace::Tracer *Trace)
    : JobExec(Ctx, W, Host, Validate, nextRaceSec()), G(G), Place(Place),
      Stats(Stats), Trace(Trace), Res(W.Buffers.size()) {
  FCL_CHECK(G.size() == W.Calls.size(), "graph does not describe workload");
}

DagJobExec::~DagJobExec() = default;

void DagJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  bool Functional = Ctx.functional();
  // Node reads land in Stage, so it is this job's own copy of the image.
  if (Functional)
    Stage = Host->image();
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
  if (Launching || ReadyList.empty())
    return;
  // Lowest node index first: deterministic launch order regardless of
  // which completion unblocked what.
  auto It = std::min_element(ReadyList.begin(), ReadyList.end());
  size_t N = *It;
  ReadyList.erase(It);
  launchNode(N);
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

void DagJobExec::launchNode(size_t N) {
  Launching = true;
  size_t D = pickDevice(N);
  NodeDevice[N] = D;
  NodeStart[N] = Ctx.now();
  NodeEstNs[N] = transferNs(N, D) + computeNs(N, D);
  BacklogNs[D] += NodeEstNs[N];
  // Materialize every touched buffer on the chosen device, then stage the
  // inputs the device does not already hold. The in-order queue guarantees
  // the kernel observes all of them.
  //
  // FetchesLeft starts at one - a launch token the launch calls hold until
  // the last is issued: other events fire between those host steps, so a
  // fetch issued early can land before the last call, and without the
  // token its callback would see a zero count and enqueue the kernel a
  // second time.
  FetchesLeft[N] = 1;
  launchStep(N, 0);
}

void DagJobExec::launchStep(size_t N, size_t I) {
  const Node &Nd = G.node(N);
  size_t D = NodeDevice[N];
  size_t NumWrites = Nd.Writes.size();
  if (I == NumWrites + Nd.Reads.size()) {
    launchDone(N);
    return;
  }
  size_t B = I < NumWrites ? Nd.Writes[I] : Nd.Reads[I - NumWrites];
  const hw::HostModel &Host = Ctx.machine().Host;
  uint64_t Bytes = W.Buffers[B].Bytes;
  if (!Bufs[B][D]) {
    Steps.then(Host.ApiCallOverhead + Host.bufferCreateTime(Bytes),
             [this, N, I, B, D] {
               mcl::Device &Dev = D == GpuIdx ? Ctx.gpu() : Ctx.cpu();
               Bufs[B][D] = Ctx.createBuffer(Dev, W.Buffers[B].Bytes,
                                             W.Buffers[B].Name);
               launchStep(N, I);
             });
    return;
  }
  if (I < NumWrites) {
    launchStep(N, I + 1);
    return;
  }
  if (Place == Placement::Residency && Res.has(B, devLoc(D))) {
    // Already resident where the node runs: the core saving.
    if (Stats) {
      ++Stats->TransfersSkipped;
      Stats->BytesSaved += Bytes;
    }
    launchStep(N, I + 1);
    return;
  }
  if (Place == Placement::Blind || Res.has(B, Loc::Host)) {
    // Blind always re-uploads from the host (whose copy blind's per-node
    // readbacks keep current); residency uploads only when the host holds
    // the freshest version.
    Steps.then(Host.ApiCallOverhead, [this, N, I, B, D, Bytes] {
      Qs[D]->enqueueWrite(*Bufs[B][D],
                          Ctx.functional() ? Stage[B].data() : nullptr,
                          Bytes);
      accountTransfer(D, Bytes);
      Res.noteCopy(B, devLoc(D));
      launchStep(N, I + 1);
    });
    return;
  }
  // Current version lives only on the other device: fetch through the
  // host (device-to-device goes via PCIe + host memory, as in OpenCL 1.x
  // without peer copies). The kernel waits for all fetches to land.
  size_t E = 1 - D;
  FCL_CHECK(Res.has(B, devLoc(E)), "buffer resident nowhere");
  ++FetchesLeft[N];
  Steps.then(Host.ApiCallOverhead, [this, N, I, B, D, E, Bytes] {
    mcl::EventPtr Ev = Qs[E]->enqueueRead(
        *Bufs[B][E], Ctx.functional() ? Stage[B].data() : nullptr, Bytes);
    accountTransfer(E, Bytes);
    Ev->onComplete([this, N, B, D, Bytes] {
      race::Section RaceS(RaceSec);
      fetchLanded(N, B, D, Bytes);
    });
    launchStep(N, I + 1);
  });
}

void DagJobExec::fetchLanded(size_t N, size_t B, size_t D, uint64_t Bytes) {
  Res.noteCopy(B, Loc::Host);
  Steps.then(Ctx.machine().Host.ApiCallOverhead, [this, N, B, D, Bytes] {
    Qs[D]->enqueueWrite(*Bufs[B][D],
                        Ctx.functional() ? Stage[B].data() : nullptr, Bytes);
    accountTransfer(D, Bytes);
    Res.noteCopy(B, devLoc(D));
    if (--FetchesLeft[N] == 0)
      enqueueKernelNode(N, [] {});
  });
}

void DagJobExec::launchDone(size_t N) {
  auto Next = [this] {
    Launching = false;
    pump();
  };
  if (--FetchesLeft[N] == 0)
    enqueueKernelNode(N, Next);
  else
    Next();
}

template <class Fn> void DagJobExec::enqueueKernelNode(size_t N, Fn Then) {
  Steps.then(Ctx.machine().Host.ApiCallOverhead, [this, N, Then] {
    const work::KernelCall &Call = W.Calls[N];
    size_t D = NodeDevice[N];
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
    Then();
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
    readBackStep(N, 0);
    return;
  }
  nodeRetired(N);
}

void DagJobExec::readBackStep(size_t N, size_t I) {
  const Node &Nd = G.node(N);
  size_t D = NodeDevice[N];
  if (I == Nd.Writes.size()) {
    mcl::EventPtr Tail = Qs[D]->enqueueCallback([] {});
    Tail->onComplete([this, N] {
      race::Section RaceS(RaceSec);
      nodeRetired(N);
    });
    return;
  }
  Steps.then(Ctx.machine().Host.ApiCallOverhead, [this, N, I, D] {
    size_t B = G.node(N).Writes[I];
    Qs[D]->enqueueRead(*Bufs[B][D],
                       Ctx.functional() ? Stage[B].data() : nullptr,
                       W.Buffers[B].Bytes);
    accountTransfer(D, W.Buffers[B].Bytes);
    Res.noteCopy(B, Loc::Host);
    readBackStep(N, I + 1);
  });
}

void DagJobExec::nodeRetired(size_t N) {
  ++DoneN;
  for (size_t S : G.node(N).Succs)
    if (--Indegree[S] == 0)
      ReadyList.push_back(S);
  if (DoneN == G.size()) {
    finishStep(0);
    return;
  }
  pump();
}

void DagJobExec::finishStep(size_t R) {
  if (R == W.ResultBuffers.size()) {
    TailsLeft = Qs.size();
    for (auto &Q : Qs) {
      mcl::EventPtr Tail = Q->enqueueCallback([] {});
      Tail->onComplete([this] {
        race::Section RaceS(RaceSec);
        if (--TailsLeft == 0)
          finishJob();
      });
    }
    return;
  }
  size_t B = W.ResultBuffers[R];
  if (Res.has(B, Loc::Host)) {
    // Blind already read every output back per node; no further cost.
    if (Ctx.functional())
      Results[R] = Stage[B];
    finishStep(R + 1);
    return;
  }
  size_t D = Res.has(B, devLoc(GpuIdx)) ? GpuIdx : CpuIdx;
  Steps.then(Ctx.machine().Host.ApiCallOverhead, [this, R, B, D] {
    Qs[D]->enqueueRead(*Bufs[B][D],
                       Ctx.functional() ? Results[R].data() : nullptr,
                       W.Buffers[B].Bytes);
    accountTransfer(D, W.Buffers[B].Bytes);
    Res.noteCopy(B, Loc::Host);
    finishStep(R + 1);
  });
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

//===- serve/JobExec.cpp - Asynchronous per-job executors -----------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/JobExec.h"

#include "kern/Registry.h"
#include "support/Error.h"
#include "work/Driver.h"

using namespace fcl;
using namespace fcl::serve;

const HostData::Buffers &HostData::image() {
  if (!Image)
    Image = work::initHostData(*W);
  return *Image;
}

const HostData::Buffers &HostData::reference() {
  if (!Reference) {
    Reference = image();
    work::computeReference(*W, *Reference);
  }
  return *Reference;
}

JobExec::JobExec(mcl::Context &Ctx, const work::Workload &W, HostData *Host,
                 bool Validate)
    : Ctx(Ctx), W(W), Host(Host), Validate(Validate) {
  FCL_CHECK(Host || !Ctx.functional(), "functional job without host data");
}

const void *JobExec::initialData(size_t I) const {
  return Ctx.functional() ? Host->image()[I].data() : nullptr;
}

void JobExec::finishJob() {
  if (Validate && Ctx.functional())
    ValidationFailed = !work::matchesReference(W, Host->reference(), Results);
  FCL_CHECK(OnDone, "job finished twice");
  DoneFn Fn = std::move(OnDone);
  OnDone = nullptr;
  Fn();
}

// --- CoopJobExec -----------------------------------------------------------

CoopJobExec::CoopJobExec(mcl::Context &Ctx, const work::Workload &W,
                         const fluidicl::Options &Opts, HostData *Host,
                         bool Validate)
    : JobExec(Ctx, W, Host, Validate),
      RT(std::make_unique<fluidicl::Runtime>(Ctx, Opts)) {}

void CoopJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    Ids.push_back(RT->createBuffer(W.Buffers[I].Bytes, W.Buffers[I].Name));
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    RT->writeBuffer(Ids[I], initialData(I), W.Buffers[I].Bytes);
  Results.resize(W.ResultBuffers.size());
  if (Ctx.functional())
    for (size_t R = 0; R < W.ResultBuffers.size(); ++R)
      Results[R].resize(W.Buffers[W.ResultBuffers[R]].Bytes);
  launchNext();
}

void CoopJobExec::launchNext() {
  if (NextCall == W.Calls.size()) {
    readNext();
    return;
  }
  const work::KernelCall &Call = W.Calls[NextCall++];
  // Kernel launches stay blocking from the client's perspective (paper
  // section 7), so the next call is issued only from this one's
  // completion.
  std::vector<runtime::KArg> Args = Call.Args;
  for (runtime::KArg &A : Args)
    if (A.IsBuffer)
      A.Buf = Ids[A.Buf];
  RT->launchKernelAsync(Call.Kernel, Call.Range, Args,
                        [this] { launchNext(); });
}

void CoopJobExec::readNext() {
  if (NextRead == W.ResultBuffers.size()) {
    finishJob();
    return;
  }
  size_t Slot = NextRead++;
  size_t BufIdx = W.ResultBuffers[Slot];
  RT->readBufferAsync(Ids[BufIdx],
                      Ctx.functional() ? Results[Slot].data() : nullptr,
                      W.Buffers[BufIdx].Bytes, [this] { readNext(); });
}

// --- SingleJobExec ---------------------------------------------------------

SingleJobExec::SingleJobExec(mcl::Context &Ctx, mcl::Device &Dev,
                             const work::Workload &W, HostData *Host,
                             bool Validate)
    : JobExec(Ctx, W, Host, Validate), Dev(Dev) {}

void SingleJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  bool Functional = Ctx.functional();
  Q = Ctx.createQueue(Dev, "serve-single");
  Duration Api = Ctx.machine().Host.ApiCallOverhead;
  for (const work::BufferSpec &Spec : W.Buffers) {
    Ctx.hostAdvance(Api);
    Bufs.push_back(Ctx.createBuffer(Dev, Spec.Bytes, Spec.Name));
  }
  for (size_t I = 0; I < W.Buffers.size(); ++I) {
    Ctx.hostAdvance(Api);
    Q->enqueueWrite(*Bufs[I], initialData(I), W.Buffers[I].Bytes);
  }
  for (const work::KernelCall &Call : W.Calls) {
    Ctx.hostAdvance(Api);
    mcl::LaunchDesc Desc;
    Desc.Kernel = &kern::Registry::builtin().get(Call.Kernel);
    Desc.Range = Call.Range;
    for (const runtime::KArg &A : Call.Args)
      Desc.Args.push_back(A.toLaunchArg(
          [&](runtime::BufferId Id) { return Bufs[Id].get(); }));
    Q->enqueueKernel(std::move(Desc));
  }
  Results.resize(W.ResultBuffers.size());
  for (size_t R = 0; R < W.ResultBuffers.size(); ++R) {
    size_t BufIdx = W.ResultBuffers[R];
    if (Functional)
      Results[R].resize(W.Buffers[BufIdx].Bytes);
    Ctx.hostAdvance(Api);
    Q->enqueueRead(*Bufs[BufIdx], Functional ? Results[R].data() : nullptr,
                   W.Buffers[BufIdx].Bytes);
  }
  // In-order queue: a trailing callback fires after every write, kernel
  // and read above has completed.
  mcl::EventPtr Tail = Q->enqueueCallback([] {});
  Tail->onComplete([this] { finishJob(); });
}

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
                 bool Validate, std::string RaceSec)
    : Ctx(Ctx), W(W), Host(Host), Validate(Validate),
      RaceSec(std::move(RaceSec)) {
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
                         bool Validate, std::string RaceSec)
    : JobExec(Ctx, W, Host, Validate, std::move(RaceSec)),
      RT(std::make_unique<fluidicl::Runtime>(Ctx, Opts)) {}

void CoopJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  Results.resize(W.ResultBuffers.size());
  if (Ctx.functional())
    for (size_t R = 0; R < W.ResultBuffers.size(); ++R)
      Results[R].resize(W.Buffers[W.ResultBuffers[R]].Bytes);
  // The runtime was built inside an event, so its set-up is the job's
  // first host step.
  Steps.then(RT->setupTime(), [this] { createNext(); });
}

void CoopJobExec::createNext() {
  if (Ids.size() == W.Buffers.size()) {
    writeNext();
    return;
  }
  const work::BufferSpec &Spec = W.Buffers[Ids.size()];
  RT->createBufferAsync(Spec.Bytes, Spec.Name, [this](runtime::BufferId Id) {
    Ids.push_back(Id);
    createNext();
  });
}

void CoopJobExec::writeNext() {
  if (NextWrite == W.Buffers.size()) {
    launchNext();
    return;
  }
  size_t I = NextWrite++;
  RT->writeBufferAsync(Ids[I], initialData(I), W.Buffers[I].Bytes,
                       [this] { writeNext(); });
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
                             bool Validate, std::string RaceSec)
    : JobExec(Ctx, W, Host, Validate, std::move(RaceSec)), Dev(Dev) {}

void SingleJobExec::start(DoneFn Done) {
  OnDone = std::move(Done);
  Q = Ctx.createQueue(Dev, "serve-single");
  Results.resize(W.ResultBuffers.size());
  if (Ctx.functional())
    for (size_t R = 0; R < W.ResultBuffers.size(); ++R)
      Results[R].resize(W.Buffers[W.ResultBuffers[R]].Bytes);
  issueNext();
}

void SingleJobExec::issueNext() {
  const hw::HostModel &H = Ctx.machine().Host;
  size_t NumBufs = W.Buffers.size();
  size_t I = NextCall++;
  if (I < NumBufs) {
    const work::BufferSpec &Spec = W.Buffers[I];
    Steps.then(H.ApiCallOverhead + H.bufferCreateTime(Spec.Bytes),
             [this, &Spec] {
               Bufs.push_back(Ctx.createBuffer(Dev, Spec.Bytes, Spec.Name));
               issueNext();
             });
    return;
  }
  I -= NumBufs;
  if (I < NumBufs) {
    Steps.then(H.ApiCallOverhead, [this, I] {
      Q->enqueueWrite(*Bufs[I], initialData(I), W.Buffers[I].Bytes);
      issueNext();
    });
    return;
  }
  I -= NumBufs;
  if (I < W.Calls.size()) {
    Steps.then(H.ApiCallOverhead, [this, I] {
      const work::KernelCall &Call = W.Calls[I];
      mcl::LaunchDesc Desc;
      Desc.Kernel = &kern::Registry::builtin().get(Call.Kernel);
      Desc.Range = Call.Range;
      for (const runtime::KArg &A : Call.Args)
        Desc.Args.push_back(A.toLaunchArg(
            [&](runtime::BufferId Id) { return Bufs[Id].get(); }));
      Q->enqueueKernel(std::move(Desc));
      issueNext();
    });
    return;
  }
  I -= W.Calls.size();
  if (I < W.ResultBuffers.size()) {
    Steps.then(H.ApiCallOverhead, [this, I] {
      size_t BufIdx = W.ResultBuffers[I];
      Q->enqueueRead(*Bufs[BufIdx],
                     Ctx.functional() ? Results[I].data() : nullptr,
                     W.Buffers[BufIdx].Bytes);
      issueNext();
    });
    return;
  }
  // In-order queue: a trailing callback fires after every write, kernel
  // and read above has completed.
  mcl::EventPtr Tail = Q->enqueueCallback([] {});
  Tail->onComplete([this] { finishJob(); });
}

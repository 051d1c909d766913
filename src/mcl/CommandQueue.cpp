//===- mcl/CommandQueue.cpp - In-order command queues ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/CommandQueue.h"

#include "mcl/Buffer.h"
#include "mcl/Context.h"
#include "mcl/Device.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Log.h"
#include "trace/Tracer.h"

#include <cstring>
#include <utility>
#include <vector>

using namespace fcl;
using namespace fcl::mcl;

namespace {

enum class CommandKind {
  Write,
  Read,
  Copy,
  Launch,
  Callback,
};

} // namespace

struct CommandQueue::Command {
  CommandKind Kind;
  EventPtr Done;
  TimePoint StartedAt; // For tracing (includes channel-wait time).
  // Write/Read/Copy.
  Buffer *Src = nullptr;
  Buffer *Dst = nullptr;
  void *HostDst = nullptr;
  std::vector<std::byte> HostSrcCopy; // Captured write payload.
  uint64_t Bytes = 0;
  uint64_t Offset = 0;
  // Launch.
  LaunchDesc Launch;
  // Callback.
  std::function<void()> Fn;
};

CommandQueue::CommandQueue(Context &Ctx, Device &Dev, std::string DebugName)
    : Ctx(Ctx), Dev(Dev), DebugName(std::move(DebugName)) {}

CommandQueue::~CommandQueue() {
  // Commands hold only non-owning references; destroying a queue with
  // pending commands is a bug in the caller.
  FCL_CHECK(idle(), "command queue destroyed while commands pending");
}

EventPtr CommandQueue::enqueue(Command Cmd) {
  Cmd.Done = std::make_shared<Event>(Ctx);
  EventPtr Done = Cmd.Done;
  if (Busy) {
    Pending.push_back(std::move(Cmd));
    return Done;
  }
  Busy = true;
  startCommand(std::move(Cmd));
  return Done;
}

void CommandQueue::pump() {
  if (Pending.empty()) {
    Busy = false;
    return;
  }
  Command Next = std::move(Pending.front());
  Pending.pop_front();
  startCommand(std::move(Next));
}

void CommandQueue::traceCommand(const Command &Cmd) {
  trace::Tracer *T = Ctx.tracer();
  if (!T)
    return;
  bool IsGpu = Dev.kind() == DeviceKind::Gpu;
  std::string_view Lane;
  std::string CopyLane, Name;
  switch (Cmd.Kind) {
  case CommandKind::Write:
    Lane = IsGpu ? "PCIe H2D" : "HostCopy H2D";
    Name = formatString("write %s (%llu B)",
                        Cmd.Dst ? Cmd.Dst->debugName().c_str() : "?",
                        static_cast<unsigned long long>(Cmd.Bytes));
    break;
  case CommandKind::Read:
    Lane = IsGpu ? "PCIe D2H" : "HostCopy D2H";
    Name = formatString("read %s (%llu B)",
                        Cmd.Src ? Cmd.Src->debugName().c_str() : "?",
                        static_cast<unsigned long long>(Cmd.Bytes));
    break;
  case CommandKind::Copy:
    CopyLane = Dev.name() + " copy";
    Lane = CopyLane;
    Name = formatString("copy %s -> %s",
                        Cmd.Src ? Cmd.Src->debugName().c_str() : "?",
                        Cmd.Dst ? Cmd.Dst->debugName().c_str() : "?");
    break;
  case CommandKind::Launch: {
    Lane = Dev.name();
    uint64_t Begin = Cmd.Launch.clampedBegin();
    uint64_t End = Cmd.Launch.clampedEnd();
    Name = Cmd.Launch.Kernel->Name;
    if (Begin != 0 || End != Cmd.Launch.Range.totalGroups())
      Name += formatString(" [%llu,%llu)",
                           static_cast<unsigned long long>(Begin),
                           static_cast<unsigned long long>(End));
    break;
  }
  case CommandKind::Callback:
    return; // Zero-duration bookkeeping; not worth a slice.
  }
  if (TraceDetail.empty())
    TraceDetail = "queue=" + DebugName;
  T->record(Lane, Name, Cmd.StartedAt, Ctx.now(), TraceDetail);
}

void CommandQueue::startCommand(Command &&Cmd) {
  sim::Simulator &Sim = Ctx.simulator();
  Cmd.StartedAt = Ctx.now();
  switch (Cmd.Kind) {
  case CommandKind::Write: {
    TimePoint End =
        Dev.scheduleTransfer(TransferDir::HostToDevice, Cmd.Bytes);
    Ctx.noteTransferStart();
    // Move the command into the completion event so the captured payload
    // stays alive until the simulated DMA lands.
    auto CmdPtr = std::make_shared<Command>(std::move(Cmd));
    Sim.scheduleAt(End, [this, CmdPtr] {
      FCL_LOG_DEBUG("queue %s: write %s lands at t=%lld",
                    DebugName.c_str(), CmdPtr->Dst->debugName().c_str(),
                    (long long)Ctx.now().nanos());
      if (CmdPtr->Dst->backed() && !CmdPtr->HostSrcCopy.empty()) {
        FCL_CHECK(CmdPtr->Offset + CmdPtr->Bytes <= CmdPtr->Dst->size(),
                  "write overruns buffer");
        std::memcpy(CmdPtr->Dst->data() + CmdPtr->Offset,
                    CmdPtr->HostSrcCopy.data(), CmdPtr->Bytes);
      }
      Ctx.noteTransferEnd();
      traceCommand(*CmdPtr);
      CmdPtr->Done->fire();
      pump();
    });
    return;
  }
  case CommandKind::Read: {
    TimePoint End =
        Dev.scheduleTransfer(TransferDir::DeviceToHost, Cmd.Bytes);
    Ctx.noteTransferStart();
    auto CmdPtr = std::make_shared<Command>(std::move(Cmd));
    Sim.scheduleAt(End, [this, CmdPtr] {
      FCL_LOG_DEBUG("queue %s: read %s lands at t=%lld",
                    DebugName.c_str(), CmdPtr->Src->debugName().c_str(),
                    (long long)Ctx.now().nanos());
      if (CmdPtr->Src->backed() && CmdPtr->HostDst) {
        FCL_CHECK(CmdPtr->Offset + CmdPtr->Bytes <= CmdPtr->Src->size(),
                  "read overruns buffer");
        std::memcpy(CmdPtr->HostDst, CmdPtr->Src->data() + CmdPtr->Offset,
                    CmdPtr->Bytes);
      }
      Ctx.noteTransferEnd();
      traceCommand(*CmdPtr);
      CmdPtr->Done->fire();
      pump();
    });
    return;
  }
  case CommandKind::Copy: {
    Duration D = Dev.copyDuration(Cmd.Bytes);
    auto CmdPtr = std::make_shared<Command>(std::move(Cmd));
    Sim.scheduleAfter(D, [this, CmdPtr] {
      if (CmdPtr->Src->backed() && CmdPtr->Dst->backed()) {
        FCL_CHECK(CmdPtr->Bytes <= CmdPtr->Src->size() &&
                      CmdPtr->Bytes <= CmdPtr->Dst->size(),
                  "copy overruns buffer");
        std::memcpy(CmdPtr->Dst->data(), CmdPtr->Src->data(), CmdPtr->Bytes);
      }
      traceCommand(*CmdPtr);
      CmdPtr->Done->fire();
      pump();
    });
    return;
  }
  case CommandKind::Launch: {
    auto CmdPtr = std::make_shared<Command>(std::move(Cmd));
    Dev.executeLaunch(CmdPtr->Launch, [this, CmdPtr](uint64_t Executed) {
      traceCommand(*CmdPtr);
      CmdPtr->Done->fire(Executed);
      pump();
    });
    return;
  }
  case CommandKind::Callback: {
    // Runs as its own simulator event so completion callbacks observe a
    // consistent queue state.
    auto CmdPtr = std::make_shared<Command>(std::move(Cmd));
    Sim.scheduleAfter(Duration::zero(), [this, CmdPtr] {
      if (CmdPtr->Fn)
        CmdPtr->Fn();
      CmdPtr->Done->fire();
      pump();
    });
    return;
  }
  }
  FCL_UNREACHABLE("covered switch");
}

EventPtr CommandQueue::enqueueWrite(Buffer &Dst, const void *Src,
                                    uint64_t Bytes, uint64_t Offset) {
  FCL_CHECK(&Dst.device() == &Dev, "buffer belongs to another device");
  FCL_CHECK(Offset + Bytes <= Dst.size(), "write overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Write;
  Cmd.Dst = &Dst;
  Cmd.Bytes = Bytes;
  Cmd.Offset = Offset;
  if (Ctx.functional() && Src) {
    const std::byte *P = static_cast<const std::byte *>(Src);
    Cmd.HostSrcCopy.assign(P, P + Bytes);
  }
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueRead(Buffer &Src, void *Dst, uint64_t Bytes,
                                   uint64_t Offset, bool Blocking) {
  FCL_CHECK(&Src.device() == &Dev, "buffer belongs to another device");
  FCL_CHECK(Offset + Bytes <= Src.size(), "read overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Read;
  Cmd.Src = &Src;
  Cmd.HostDst = Dst;
  Cmd.Bytes = Bytes;
  Cmd.Offset = Offset;
  EventPtr Done = enqueue(std::move(Cmd));
  if (Blocking)
    Done->wait();
  return Done;
}

EventPtr CommandQueue::enqueueCopy(Buffer &Src, Buffer &Dst, uint64_t Bytes) {
  FCL_CHECK(&Src.device() == &Dev && &Dst.device() == &Dev,
            "copy requires both buffers on this device");
  FCL_CHECK(Bytes <= Src.size() && Bytes <= Dst.size(),
            "copy overruns buffer");
  Command Cmd;
  Cmd.Kind = CommandKind::Copy;
  Cmd.Src = &Src;
  Cmd.Dst = &Dst;
  Cmd.Bytes = Bytes;
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueKernel(LaunchDesc Desc) {
  FCL_CHECK(Desc.Kernel != nullptr, "launch without kernel");
  FCL_CHECK(Desc.Kernel->Args.size() == Desc.Args.size(),
            "launch argument arity mismatch");
  Command Cmd;
  Cmd.Kind = CommandKind::Launch;
  Cmd.Launch = std::move(Desc);
  return enqueue(std::move(Cmd));
}

EventPtr CommandQueue::enqueueCallback(std::function<void()> Fn) {
  Command Cmd;
  Cmd.Kind = CommandKind::Callback;
  Cmd.Fn = std::move(Fn);
  return enqueue(std::move(Cmd));
}

void CommandQueue::finish() {
  Ctx.simulator().runWhileNot([this] { return idle(); });
}

//===- mcl/CommandQueue.h - In-order command queues -------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analogue of an in-order cl_command_queue: commands (buffer writes
/// and reads, device-to-device copies, kernel launches, host callbacks)
/// start in enqueue order, each after its predecessor completes. FluidiCL
/// relies on this in-order property: the CPU execution-status message is
/// enqueued *after* the computed data on the hd queue, so the GPU only
/// observes a work-group as CPU-complete once the data is already with it
/// (paper section 4.2).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_COMMANDQUEUE_H
#define FCL_MCL_COMMANDQUEUE_H

#include "mcl/Event.h"
#include "mcl/Launch.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace fcl {
namespace mcl {

class Buffer;
class Context;
class Device;

/// In-order command queue bound to one device.
class CommandQueue {
public:
  CommandQueue(Context &Ctx, Device &Dev, std::string DebugName);
  ~CommandQueue();

  Device &device() const { return Dev; }
  const std::string &debugName() const { return DebugName; }

  /// Copies \p Bytes from host memory \p Src into \p Dst at \p Offset.
  /// In Functional mode the bytes are captured at enqueue time (so callers
  /// may reuse the source immediately, like a completed clEnqueueWriteBuffer
  /// with an internal staging copy).
  EventPtr enqueueWrite(Buffer &Dst, const void *Src, uint64_t Bytes,
                        uint64_t Offset = 0);

  /// Reads \p Bytes from \p Src at \p Offset into host memory \p Dst at the
  /// simulated completion time. If \p Blocking, runs the simulator until
  /// the read completes before returning.
  EventPtr enqueueRead(Buffer &Src, void *Dst, uint64_t Bytes,
                       uint64_t Offset = 0, bool Blocking = false);

  /// On-device copy (used for FluidiCL's "original data" snapshots).
  EventPtr enqueueCopy(Buffer &Src, Buffer &Dst, uint64_t Bytes);

  /// NDRange kernel launch.
  EventPtr enqueueKernel(LaunchDesc Desc);

  /// Host callback that runs, in order, when it reaches the queue head
  /// (zero simulated duration).
  EventPtr enqueueCallback(std::function<void()> Fn);

  /// Runs the simulator until every command enqueued so far has completed.
  void finish();

  /// True when no command is executing or pending.
  bool idle() const { return !Busy && Pending.empty(); }

private:
  struct Command;

  void pump();
  void traceCommand(const Command &Cmd);
  void startCommand(Command &&Cmd);
  EventPtr enqueue(Command Cmd);

  Context &Ctx;
  Device &Dev;
  std::string DebugName;
  /// Slice detail "queue=<DebugName>", built by the first traced command.
  std::string TraceDetail;
  bool Busy = false;
  std::deque<Command> Pending;
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_COMMANDQUEUE_H

//===- mcl/Context.h - MiniCL context ---------------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniCL context owns the simulator, the machine description, and the
/// two devices (CPU + discrete GPU), and creates buffers and command
/// queues. It is the analogue of a cl_context spanning both vendor
/// platforms (which is what FluidiCL builds on top of, paper Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_CONTEXT_H
#define FCL_MCL_CONTEXT_H

#include "hw/Machine.h"
#include "mcl/Buffer.h"
#include "mcl/Device.h"
#include "race/Race.h"
#include "sim/Simulator.h"
#include "trace/Tracer.h"

#include <memory>
#include <string>
#include <utility>

namespace fcl {
namespace mcl {

class CommandQueue;

/// Whether kernels compute real results or only consume simulated time.
enum class ExecMode {
  Functional,
  TimingOnly,
};

/// Owns the simulated machine: clock, devices, buffers, queues.
class Context {
public:
  explicit Context(const hw::Machine &M = hw::paperMachine(),
                   ExecMode Mode = ExecMode::Functional);
  ~Context();

  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  sim::Simulator &simulator() { return Sim; }
  const hw::Machine &machine() const { return M; }
  bool functional() const { return Mode == ExecMode::Functional; }

  Device &cpu() { return *Cpu; }
  Device &gpu() { return *Gpu; }

  /// Current simulated time.
  TimePoint now() const { return Sim.now(); }

  /// Charges \p D of host-side work (API-call overheads, buffer creation,
  /// host copies) to its caller, then runs \p Then. Outside any simulator
  /// event this blocks: it runs the loop to now() + \p D and calls \p Then
  /// before returning. Inside an event it schedules \p Then at now() + \p D
  /// and returns at once, so host time delays only its caller and one run
  /// loop runs at a time.
  template <class Fn> void hostThen(Duration D, Fn Then) {
    if (Sim.inEvent()) {
      Sim.scheduleAfter(D, std::move(Then));
      return;
    }
    Sim.runUntil(Sim.now() + D);
    Then();
  }

  /// Creates a device buffer. It charges nothing: callers charge
  /// machine().Host.bufferCreateTime(Size) through hostThen, summed with
  /// the rest of their API call.
  std::unique_ptr<Buffer> createBuffer(Device &Dev, uint64_t Size,
                                       std::string DebugName = "buf");

  /// Creates an in-order command queue for \p Dev.
  std::unique_ptr<CommandQueue> createQueue(Device &Dev,
                                            std::string DebugName = "queue");

  /// Attaches an execution tracer (nullptr detaches). Every queue command
  /// records a slice on its resource's lane while a tracer is attached.
  void setTracer(trace::Tracer *T) { ActiveTracer = T; }
  trace::Tracer *tracer() const { return ActiveTracer; }

  /// Write/Read commands in flight across all queues: command queues keep
  /// the count current, and the attached tracer gets an "Outstanding
  /// transfers" counter sample on every change.
  void noteTransferStart() {
    ++OutstandingTransfers;
    sampleOutstandingTransfers();
  }
  void noteTransferEnd() {
    --OutstandingTransfers;
    sampleOutstandingTransfers();
  }

private:
  void sampleOutstandingTransfers() {
    if (ActiveTracer)
      ActiveTracer->counter("Outstanding transfers", now(),
                            static_cast<double>(OutstandingTransfers));
  }

  hw::Machine M;
  ExecMode Mode;
  sim::Simulator Sim;
  std::unique_ptr<Device> Cpu;
  std::unique_ptr<Device> Gpu;
  trace::Tracer *ActiveTracer = nullptr;
  int OutstandingTransfers = 0;
};

/// The host steps of one owner (a runtime or a job executor). Each step is
/// a Context::hostThen whose continuation re-enters the owner's fcl::race
/// section, and the owner is busy while a step is pending, so retiring it
/// never frees state that a continuation still uses.
class HostSteps {
public:
  /// \p Section is the owner's section name; it must outlive this object
  /// and may be set after it is built.
  HostSteps(Context &Ctx, const std::string &Section)
      : Ctx(Ctx), Section(Section) {}

  template <class Fn> void then(Duration D, Fn Then) {
    ++Pending;
    Ctx.hostThen(D, [this, Then = std::move(Then)]() mutable {
      --Pending;
      race::Section RaceS(Section);
      Then();
    });
  }

  /// True when every step has run.
  bool idle() const { return Pending == 0; }

private:
  Context &Ctx;
  const std::string &Section;
  int Pending = 0;
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_CONTEXT_H

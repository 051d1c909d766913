//===- mcl/Launch.h - Kernel launch descriptors -----------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The descriptor of one NDRange kernel launch, including the extensions
/// FluidiCL's transformed kernels need: a flat work-group range restriction
/// (CPU subkernels, paper section 5.2), the GPU abort configuration and the
/// status word the abort checks read (sections 4.2/6.4), and CPU
/// work-group splitting (section 6.3).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_LAUNCH_H
#define FCL_MCL_LAUNCH_H

#include "hw/CostModel.h"
#include "kern/Kernel.h"
#include "kern/NDRange.h"
#include "support/Error.h"

#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace fcl {
namespace mcl {

class Buffer;

/// Live accounting the executing engine updates while a launch runs. A
/// runtime that wants visibility into mid-flight behaviour (wasted aborted
/// work) shares one of these via LaunchDesc::Counters; the engine never
/// reads it, only adds.
struct LaunchCounters {
  /// Work-groups an in-loop abort check killed after they had already
  /// started executing in a wave: cycles burned, results discarded.
  uint64_t GroupsWasted = 0;
};

/// The CPU execution-status word FluidiCL's transformed GPU kernels read
/// (sections 4.2/6.4): the smallest flat work-group ID B such that every
/// work-group >= B has been completed by the CPU *and its data has arrived
/// at the GPU*. It only ever goes down. A GPU launch with in-loop checks
/// watches the word instead of polling it at every checkpoint: lower()
/// notifies the watcher, which moves the wave's next event to the first
/// checkpoint at or after the lowering.
class StatusWord {
public:
  explicit StatusWord(uint64_t Initial) : Value(Initial) {}

  uint64_t value() const { return Value; }

  /// Lowers the word to \p V and notifies the watcher; a no-op unless \p V
  /// is below the current value.
  void lower(uint64_t V) {
    if (V >= Value)
      return;
    Value = V;
    if (Watcher)
      Watcher();
  }

  /// Installs (or, with null, removes) the one watcher told about every
  /// lowering.
  void watch(std::function<void()> Fn) {
    FCL_CHECK(!Fn || !Watcher, "status word already watched");
    Watcher = std::move(Fn);
  }

private:
  uint64_t Value;
  std::function<void()> Watcher;
};

/// One bound kernel argument at the API boundary: a Buffer or a scalar.
struct LaunchArg {
  Buffer *Buf = nullptr; // Null for scalars.
  int64_t IntValue = 0;
  double FpValue = 0;

  static LaunchArg buffer(Buffer *B) {
    LaunchArg A;
    A.Buf = B;
    return A;
  }
  static LaunchArg scalarInt(int64_t I) {
    LaunchArg A;
    A.IntValue = I;
    A.FpValue = static_cast<double>(I);
    return A;
  }
  static LaunchArg scalarFp(double D) {
    LaunchArg A;
    A.FpValue = D;
    A.IntValue = static_cast<int64_t>(D);
    return A;
  }
};

/// Full description of one kernel launch command.
struct LaunchDesc {
  const kern::KernelInfo *Kernel = nullptr;
  kern::NDRange Range;
  std::vector<LaunchArg> Args;

  /// Only flat work-groups in [FlatBegin, FlatEnd) execute; others skip
  /// (the CPU subkernel range check / GPU tail). Defaults to the whole
  /// NDRange.
  uint64_t FlatBegin = 0;
  uint64_t FlatEnd = std::numeric_limits<uint64_t>::max();

  /// GPU abort-check configuration (None for unmodified kernels).
  hw::AbortConfig Abort;

  /// When set, the CPU status word the abort checks compare against: the
  /// GPU stops launching (and, with in-loop checks, aborts in-flight)
  /// work-groups >= its value.
  std::shared_ptr<StatusWord> Status;

  /// CPU work-group splitting (section 6.3): when the range holds fewer
  /// work-groups than compute units, split each work-group across all
  /// units (barriers become phase joins, local memory becomes global).
  bool SplitWorkGroups = false;

  /// Optional shared accounting the engine updates as the launch runs.
  std::shared_ptr<LaunchCounters> Counters;

  /// Queried at the launch's completion: when it returns true the launch's
  /// functional writes are suppressed (timing is unaffected). FluidiCL uses
  /// this for trailing CPU subkernels whose results are discarded - the
  /// merged GPU data re-establishes the authoritative copy, so the moot
  /// subkernel must not leave observable writes behind it.
  std::function<bool()> SkipFunctional;

  /// Clamped execution range for \p Range.
  uint64_t clampedBegin() const { return FlatBegin; }
  uint64_t clampedEnd() const {
    uint64_t Total = Range.totalGroups();
    return FlatEnd < Total ? FlatEnd : Total;
  }
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_LAUNCH_H

//===- runtime/HeteroRuntime.h - Common runtime interface -------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The application-facing runtime interface every experiment drives. It
/// mirrors the OpenCL host API subset FluidiCL supports (paper section 7):
/// buffer create/write/read plus blocking NDRange kernel launches. The
/// implementations are:
///
///   * runtime::SingleDeviceRuntime   - CPU-only / GPU-only baselines
///   * runtime::StaticPartitionRuntime- manual x% GPU split (Fig. 2/3,
///                                      OracleSP)
///   * fluidicl::Runtime              - the paper's contribution
///   * socl::SoclRuntime              - StarPU/SOCL-style task scheduler
///                                      (eager and dmda policies, Fig. 16)
///
/// Because every implementation runs on the same simulated mcl::Context,
/// execution times are directly comparable and deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_HETERORUNTIME_H
#define FCL_RUNTIME_HETERORUNTIME_H

#include "kern/NDRange.h"
#include "mcl/Context.h"
#include "mcl/Launch.h"
#include "stats/Registry.h"
#include "stats/Report.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fcl {
namespace runtime {

/// Application-level handle to a runtime-managed buffer.
using BufferId = uint32_t;

/// Application-level kernel argument: a BufferId or a scalar.
struct KArg {
  bool IsBuffer = false;
  BufferId Buf = 0;
  int64_t IntValue = 0;
  double FpValue = 0;

  static KArg buffer(BufferId Id) {
    KArg A;
    A.IsBuffer = true;
    A.Buf = Id;
    return A;
  }
  static KArg i64(int64_t I) {
    KArg A;
    A.IntValue = I;
    A.FpValue = static_cast<double>(I);
    return A;
  }
  static KArg f64(double D) {
    KArg A;
    A.FpValue = D;
    A.IntValue = static_cast<int64_t>(D);
    return A;
  }

  /// The launch-time form of this argument: scalars copy their values,
  /// buffers become \p BufferOf(Buf), the mcl::Buffer on the launching
  /// device. \p BufferOf runs only for buffer arguments, since a lookup
  /// may create a device copy.
  template <class BufferFn>
  mcl::LaunchArg toLaunchArg(BufferFn &&BufferOf) const {
    if (IsBuffer)
      return mcl::LaunchArg::buffer(BufferOf(Buf));
    mcl::LaunchArg A;
    A.IntValue = IntValue;
    A.FpValue = FpValue;
    return A;
  }
};

/// Abstract runtime: the single-device OpenCL programming model the
/// application was written against.
class HeteroRuntime {
public:
  virtual ~HeteroRuntime();

  /// The simulated machine this runtime executes on.
  mcl::Context &context() const { return Ctx; }

  /// Short identifier ("CPU", "GPU", "FluidiCL", ...).
  virtual std::string name() const = 0;

  /// Creates a buffer of \p Size bytes (clCreateBuffer).
  virtual BufferId createBuffer(uint64_t Size, std::string DebugName) = 0;

  /// Writes \p Bytes from host memory (clEnqueueWriteBuffer).
  virtual void writeBuffer(BufferId Id, const void *Src, uint64_t Bytes) = 0;

  /// Reads \p Bytes back to host memory (blocking clEnqueueReadBuffer).
  virtual void readBuffer(BufferId Id, void *Dst, uint64_t Bytes) = 0;

  /// Launches \p KernelName over \p Range; blocking, as in the paper's
  /// implementation (section 7).
  virtual void launchKernel(const std::string &KernelName,
                            const kern::NDRange &Range,
                            const std::vector<KArg> &Args) = 0;

  /// Drains any outstanding work (clFinish).
  virtual void finish() = 0;

  /// Current simulated time (total-running-time measurements).
  TimePoint now() const { return Ctx.now(); }

  /// Runtime counters and gauges accumulated so far (bytes moved, task
  /// placement, cache hits, ...). Every implementation adds to this as it
  /// runs; counter names are catalogued in docs/OBSERVABILITY.md.
  const stats::Registry &statsRegistry() const { return Stats; }

  /// Adds everything this runtime knows into \p Report: the counter
  /// registry plus, for implementations that track per-launch records
  /// (FluidiCL), one LaunchStats per kernel launch.
  virtual void collectStats(stats::RunReport &Report) const;

protected:
  explicit HeteroRuntime(mcl::Context &Ctx) : Ctx(Ctx) {}

  mcl::Context &Ctx;
  /// Mutable so const query paths (readBuffer routing decisions live in
  /// non-const methods, but name()/collectStats stay const) can account.
  mutable stats::Registry Stats;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_HETERORUNTIME_H

//===- socl/SoclRuntime.h - StarPU/SOCL-style task scheduler ----*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison system of paper section 9.4: SOCL, the OpenCL frontend of
/// StarPU. Each kernel launch becomes one *task* placed entirely on a
/// single device; the runtime manages data movement between host and
/// devices automatically. Two scheduling policies are reproduced:
///
///  * eager - the StarPU default: a shared ready queue drained greedily by
///    idle workers, blind to device speed and transfer cost. With the
///    blocking single-task-at-a-time pattern of these benchmarks it
///    degenerates to round-robin placement, paying transfer ping-pong.
///  * dmda ("deque model data aware") - requires prior calibration runs to
///    build a per-kernel performance model; then places each task on the
///    device minimizing estimated transfer + execution time.
///
/// Unlike FluidiCL, neither policy can split a single kernel across
/// devices, which is why FluidiCL wins on SYRK-style kernels.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SOCL_SOCLRUNTIME_H
#define FCL_SOCL_SOCLRUNTIME_H

#include "runtime/ManagedBuffer.h"
#include "socl/PerfModel.h"

#include <memory>
#include <vector>

namespace fcl {
namespace socl {

/// Scheduling policy.
enum class Policy {
  Eager,
  Dmda,
};

/// SOCL-like heterogeneous task runtime.
class SoclRuntime final : public runtime::ManagedRuntime {
public:
  /// \p Model is the (externally owned) performance-model store; dmda
  /// reads estimates from it, and *all* runs record into it - run the
  /// application with forced alternation (calibration) first to populate
  /// it, as the paper does with at least 10 calibration runs.
  /// \p TaskSeed offsets the eager/calibration alternation so repeated
  /// calibration runs of single-kernel applications sample both devices.
  SoclRuntime(mcl::Context &Ctx, Policy P, PerfModel &Model,
              bool Calibrating = false, uint64_t TaskSeed = 0);
  ~SoclRuntime() override;

  std::string name() const override;
  void launchKernel(const std::string &KernelName, const kern::NDRange &Range,
                    const std::vector<runtime::KArg> &Args) override;
  void finish() override;

  /// Device chosen for each task so far (for tests).
  const std::vector<mcl::DeviceKind> &placements() const {
    return Placements;
  }

private:
  mcl::Device &chooseDevice(const std::string &KernelName,
                            const kern::NDRange &Range,
                            const std::vector<runtime::KArg> &Args);
  mcl::CommandQueue &queueFor(mcl::Device &Dev) override;
  Duration pendingTransferCost(mcl::Device &Dev,
                               const std::vector<runtime::KArg> &Args);

  Policy P;
  PerfModel &Model;
  bool Calibrating;
  uint64_t TaskCounter = 0;
  std::unique_ptr<mcl::CommandQueue> GpuQueue;
  std::unique_ptr<mcl::CommandQueue> CpuQueue;
  std::vector<mcl::DeviceKind> Placements;
};

} // namespace socl
} // namespace fcl

#endif // FCL_SOCL_SOCLRUNTIME_H

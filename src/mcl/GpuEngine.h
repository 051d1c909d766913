//===- mcl/GpuEngine.h - Simulated discrete GPU device ----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated discrete GPU: work-groups execute in waves of
/// (SMs x resident groups) in ascending flattened-ID order, transfers cross
/// a full-duplex PCIe link, and FluidiCL-transformed kernels check the CPU
/// completion status - at work-group start, and (with the section 6.4
/// optimization) at in-loop checkpoints that let in-flight waves terminate
/// early when the CPU has already finished the tail of the NDRange.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_GPUENGINE_H
#define FCL_MCL_GPUENGINE_H

#include "mcl/Device.h"

namespace fcl {
namespace mcl {

/// Simulated discrete GPU device.
class GpuEngine final : public Device {
public:
  explicit GpuEngine(Context &Ctx);

  int computeUnits() const override;
  TimePoint scheduleTransfer(TransferDir Dir, uint64_t Bytes) override;
  Duration copyDuration(uint64_t Bytes) const override;
  void executeLaunch(const LaunchDesc &Desc,
                     std::function<void(uint64_t)> Complete) override;

  /// Analytic duration of a launch assuming no aborts occur (exposed for
  /// tests and the SOCL dmda performance model's ground truth).
  Duration launchDuration(const LaunchDesc &Desc) const;

private:
  struct Run;

  TimePoint ChannelFree[2];
  /// Counter track of live work-groups: "<name> live work-groups".
  std::string LiveTrack;
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_GPUENGINE_H

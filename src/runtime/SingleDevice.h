//===- runtime/SingleDevice.h - CPU-only / GPU-only baselines ---*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's baselines: the unmodified application run directly on one
/// vendor runtime (CPU-only or GPU-only), with the usual upload / launch /
/// download flow on a single in-order queue.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_SINGLEDEVICE_H
#define FCL_RUNTIME_SINGLEDEVICE_H

#include "runtime/ManagedBuffer.h"

#include <memory>
#include <vector>

namespace fcl {
namespace runtime {

/// Runs every command on one device (the CPU-only and GPU-only baselines).
class SingleDeviceRuntime final : public ManagedRuntime {
public:
  SingleDeviceRuntime(mcl::Context &Ctx, mcl::DeviceKind Kind);
  ~SingleDeviceRuntime() override;

  std::string name() const override;
  /// Uploads at once: the device is the only place the data is used.
  void writeBuffer(BufferId Id, const void *Src, uint64_t Bytes) override;
  void readBuffer(BufferId Id, void *Dst, uint64_t Bytes) override;
  void launchKernel(const std::string &KernelName, const kern::NDRange &Range,
                    const std::vector<KArg> &Args) override;
  void finish() override;

  /// Simulated duration the device would need for this launch alone
  /// (used by Table 1 and the SOCL calibration).
  Duration kernelOnlyDuration(const std::string &KernelName,
                              const kern::NDRange &Range,
                              const std::vector<KArg> &Args);

private:
  mcl::CommandQueue &queueFor(mcl::Device &) override { return *Queue; }
  mcl::LaunchDesc buildLaunch(const std::string &KernelName,
                              const kern::NDRange &Range,
                              const std::vector<KArg> &Args);

  mcl::Device &Dev;
  std::unique_ptr<mcl::CommandQueue> Queue;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_SINGLEDEVICE_H

//===- runtime/StaticPartition.h - Manual x% GPU split baseline -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The manual static-partitioning baseline of paper Figures 2/3 and the
/// OracleSP bar of Figure 13: every kernel's flat work-group range is split
/// at a fixed GPU fraction, both devices execute their part concurrently,
/// and the programmer-visible data management (upload both, read back both
/// halves, merge on the host, re-upload) is performed explicitly. Sweeping
/// the fraction 0..100% and taking the best run yields OracleSP.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_STATICPARTITION_H
#define FCL_RUNTIME_STATICPARTITION_H

#include "runtime/ManagedBuffer.h"

#include <memory>
#include <vector>

namespace fcl {
namespace runtime {

/// Splits every kernel launch at a fixed GPU work fraction.
class StaticPartitionRuntime : public ManagedRuntime {
public:
  /// \p GpuFraction in [0, 1]: share of flat work-groups (from the low end)
  /// run on the GPU; the rest runs on the CPU.
  StaticPartitionRuntime(mcl::Context &Ctx, double GpuFraction);
  ~StaticPartitionRuntime() override;

  std::string name() const override;
  void launchKernel(const std::string &KernelName, const kern::NDRange &Range,
                    const std::vector<KArg> &Args) override;
  void finish() override;

  double gpuFraction() const { return GpuFraction; }

  /// Adjusts the split for subsequent launches (used by the Qilin-style
  /// ProfiledSplitRuntime to apply per-kernel trained fractions).
  void setGpuFraction(double Fraction);

private:
  mcl::CommandQueue &queueFor(mcl::Device &Dev) override;
  void launchOn(mcl::Device &Dev, mcl::CommandQueue &Queue,
                const kern::KernelInfo &Kernel, const kern::NDRange &Range,
                const std::vector<KArg> &Args, uint64_t FlatBegin,
                uint64_t FlatEnd, mcl::EventPtr &Done);

  double GpuFraction;
  std::unique_ptr<mcl::CommandQueue> GpuQueue;
  std::unique_ptr<mcl::CommandQueue> CpuQueue;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_STATICPARTITION_H

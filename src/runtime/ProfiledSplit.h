//===- runtime/ProfiledSplit.h - Qilin-style trained splitter ---*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Qilin-style adaptive-mapping baseline (the profiling-based related
/// work the paper positions FluidiCL against): a training run measures
/// each kernel's execution rate on each device, then production runs split
/// every kernel *statically per kernel* at the rate-proportional fraction
/// gpu/(gpu+cpu). Unlike FluidiCL it needs the training step, cannot react
/// to input-size or load changes that the training did not see, and still
/// pays the manual coherence costs of static splitting; unlike OracleSP it
/// does not need an exhaustive sweep.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_PROFILEDSPLIT_H
#define FCL_RUNTIME_PROFILEDSPLIT_H

#include "runtime/StaticPartition.h"

#include <map>
#include <string>

namespace fcl {
namespace runtime {

/// Trained per-kernel split fractions.
class SplitModel {
public:
  /// Records a measured (kernel-only) duration for one device.
  void record(const std::string &Kernel, mcl::DeviceKind Kind,
              Duration Took);

  /// Rate-proportional GPU fraction for \p Kernel; 1.0 (GPU-only) when
  /// untrained, mirroring the GPU-oriented default of such systems.
  double gpuFraction(const std::string &Kernel) const;

  /// True when both devices have a sample for \p Kernel.
  bool trained(const std::string &Kernel) const;

private:
  struct Times {
    double CpuSeconds = 0;
    double GpuSeconds = 0;
  };
  std::map<std::string, Times> Samples;
};

/// Production runtime: per-kernel static splits at the trained fractions,
/// with the same manual data management as StaticPartitionRuntime, whose
/// split it retunes before every launch.
class ProfiledSplitRuntime final : public StaticPartitionRuntime {
public:
  ProfiledSplitRuntime(mcl::Context &Ctx, const SplitModel &Model)
      : StaticPartitionRuntime(Ctx, 1.0), Model(Model) {}

  std::string name() const override { return "ProfiledSplit"; }
  void launchKernel(const std::string &KernelName, const kern::NDRange &Range,
                    const std::vector<KArg> &Args) override;

private:
  const SplitModel &Model;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_PROFILEDSPLIT_H

//===- runtime/ProfiledSplit.cpp - Qilin-style trained splitter -----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ProfiledSplit.h"

using namespace fcl;
using namespace fcl::runtime;

void SplitModel::record(const std::string &Kernel, mcl::DeviceKind Kind,
                        Duration Took) {
  Times &T = Samples[Kernel];
  if (Kind == mcl::DeviceKind::Cpu)
    T.CpuSeconds = Took.toSeconds();
  else
    T.GpuSeconds = Took.toSeconds();
}

double SplitModel::gpuFraction(const std::string &Kernel) const {
  auto It = Samples.find(Kernel);
  if (It == Samples.end() || It->second.CpuSeconds <= 0 ||
      It->second.GpuSeconds <= 0)
    return 1.0; // Untrained: default to the GPU.
  // Rate-proportional split: rate = 1/time per device.
  double GpuRate = 1.0 / It->second.GpuSeconds;
  double CpuRate = 1.0 / It->second.CpuSeconds;
  return GpuRate / (GpuRate + CpuRate);
}

bool SplitModel::trained(const std::string &Kernel) const {
  auto It = Samples.find(Kernel);
  return It != Samples.end() && It->second.CpuSeconds > 0 &&
         It->second.GpuSeconds > 0;
}

void ProfiledSplitRuntime::launchKernel(const std::string &KernelName,
                                        const kern::NDRange &Range,
                                        const std::vector<KArg> &Args) {
  setGpuFraction(Model.gpuFraction(KernelName));
  StaticPartitionRuntime::launchKernel(KernelName, Range, Args);
}

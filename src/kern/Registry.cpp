//===- kern/Registry.cpp - Kernel registry --------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "kern/Registry.h"

#include "support/Error.h"
#include "support/Format.h"

using namespace fcl;
using namespace fcl::kern;

void Registry::add(KernelInfo Info) {
  FCL_CHECK(!Info.Name.empty(), "kernel must have a name");
  FCL_CHECK(Info.Fn != nullptr, "kernel must have a body");
  FCL_CHECK(Info.Cost != nullptr, "kernel must have a cost descriptor");
  FCL_CHECK(!Info.GroupFn || (Info.NumPhases == 1 && Info.LocalBytes == 0),
            "a work-group body needs a kernel without barriers or local "
            "memory");
  auto [It, Inserted] = Kernels.emplace(Info.Name, std::move(Info));
  (void)It;
  FCL_CHECK(Inserted, "duplicate kernel registration");
}

const KernelInfo *Registry::find(const std::string &Name) const {
  auto It = Kernels.find(Name);
  return It == Kernels.end() ? nullptr : &It->second;
}

const KernelInfo &Registry::get(const std::string &Name) const {
  const KernelInfo *Info = find(Name);
  if (!Info)
    fatalError(__FILE__, __LINE__,
               formatString("unknown kernel '%s'", Name.c_str()).c_str());
  return *Info;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Kernels.size());
  for (const auto &[Name, Info] : Kernels) {
    (void)Info;
    Out.push_back(Name);
  }
  return Out;
}

Registry &Registry::builtin() {
  static Registry *R = [] {
    auto *Reg = new Registry();
    registerAtaxKernels(*Reg);
    registerBicgKernels(*Reg);
    registerCorrKernels(*Reg);
    registerGesummvKernels(*Reg);
    registerSyrkKernels(*Reg);
    registerSyr2kKernels(*Reg);
    registerMvtKernels(*Reg);
    registerGemmKernels(*Reg);
    registerJacobiKernels(*Reg);
    registerCovarKernels(*Reg);
    registerVectorKernels(*Reg);
    registerMergeKernel(*Reg);
    return Reg;
  }();
  return *R;
}

//===- mcl/Program.h - Programs and stateful kernel objects -----*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clCreateProgram/clBuildProgram/clCreateKernel/clSetKernelArg layer
/// of MiniCL. "Building" a program selects kernels from the registered
/// kernel set (the registry stands in for the vendor compiler, which is
/// how clBuildProgram turns source into kernels); a KernelObject then
/// carries stateful, index-set arguments and lowers to a LaunchDesc for
/// CommandQueue::enqueueKernel.
///
/// FluidiCL's own fcl* shim (fluidicl/OpenCLShim.h) offers the same
/// stateful style at the cooperative-runtime level; this layer provides it
/// for single-device MiniCL programs.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_MCL_PROGRAM_H
#define FCL_MCL_PROGRAM_H

#include "mcl/Launch.h"

#include <string>
#include <vector>

namespace fcl {
namespace mcl {

class Buffer;

/// A built program: a set of kernels available for kernel-object creation.
class Program {
public:
  /// Builds a program containing \p KernelNames. Aborts on unknown names
  /// (the analogue of a compile error from clBuildProgram).
  explicit Program(const std::vector<std::string> &KernelNames);

  /// Builds a program containing every registered kernel.
  static Program allBuiltins();

  bool hasKernel(const std::string &Name) const;
  const kern::KernelInfo &kernel(const std::string &Name) const;
  size_t numKernels() const { return Kernels.size(); }

private:
  std::vector<const kern::KernelInfo *> Kernels;
};

/// A stateful kernel object (clCreateKernel + clSetKernelArg): arguments
/// are set by index and retained across launches.
class KernelObject {
public:
  KernelObject(const Program &Prog, const std::string &Name);

  /// Binds a buffer argument.
  void setArgBuffer(size_t Index, Buffer *Buf);
  /// Binds an integer scalar argument.
  void setArgInt(size_t Index, int64_t Value);
  /// Binds a floating-point scalar argument.
  void setArgFloat(size_t Index, double Value);

  /// True once every argument has been set.
  bool argsComplete() const;

  /// Lowers to a launch descriptor over \p Range (all arguments must be
  /// set; scalar/buffer kinds must match the kernel's declaration).
  LaunchDesc buildLaunch(const kern::NDRange &Range) const;

private:
  const kern::KernelInfo *Info;
  std::vector<LaunchArg> Args;
  std::vector<bool> Set;
};

} // namespace mcl
} // namespace fcl

#endif // FCL_MCL_PROGRAM_H

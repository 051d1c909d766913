//===- kern/Kernel.h - Kernel descriptors and execution context -*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In this reproduction, OpenCL C kernels are represented as registered C++
/// work-item functions plus metadata: per-argument access kinds (the
/// out/inout information FluidiCL's "simple compiler analysis" extracts),
/// barrier phase structure, a per-launch cost descriptor for the timing
/// model, and optional device-optimized variants (paper section 6.6). A hot
/// kernel may add a whole-work-group function that computes the same bytes
/// faster on the host; it changes no simulated time.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_KERN_KERNEL_H
#define FCL_KERN_KERNEL_H

#include "hw/CostModel.h"
#include "kern/NDRange.h"
#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fcl {
namespace kern {

/// How a kernel argument is accessed. FluidiCL duplicates and merges only
/// Out/InOut buffers (paper section 4.1).
enum class ArgAccess {
  /// Read-only global buffer.
  In,
  /// Write-only global buffer.
  Out,
  /// Read-write global buffer.
  InOut,
  /// Scalar value (by value, no data management).
  Scalar,
};

/// Returns true for Out and InOut.
inline bool isWrittenAccess(ArgAccess A) {
  return A == ArgAccess::Out || A == ArgAccess::InOut;
}

/// One bound kernel argument: either a view of device memory or a scalar.
/// In TimingOnly execution buffers may have Data == nullptr.
struct ArgValue {
  std::byte *Data = nullptr;
  uint64_t Size = 0;     // Bytes, for buffers.
  int64_t IntValue = 0;  // For scalars.
  double FpValue = 0;    // For scalars.

  static ArgValue buffer(std::byte *Data, uint64_t Size) {
    ArgValue V;
    V.Data = Data;
    V.Size = Size;
    return V;
  }
  static ArgValue scalarInt(int64_t I) {
    ArgValue V;
    V.IntValue = I;
    V.FpValue = static_cast<double>(I);
    return V;
  }
  static ArgValue scalarFp(double D) {
    ArgValue V;
    V.FpValue = D;
    V.IntValue = static_cast<int64_t>(D);
    return V;
  }
};

/// The bound arguments of one kernel launch.
class ArgsView {
public:
  ArgsView() = default;
  explicit ArgsView(std::vector<ArgValue> Values) : Values(std::move(Values)) {}

  size_t size() const { return Values.size(); }
  const ArgValue &operator[](size_t I) const {
    assert(I < Values.size() && "argument index out of range");
    return Values[I];
  }

  /// Typed pointer to a buffer argument.
  template <typename T> T *bufferAs(size_t I) const {
    return reinterpret_cast<T *>((*this)[I].Data);
  }
  /// Element count of a buffer argument interpreted as T.
  template <typename T> uint64_t bufferLen(size_t I) const {
    return (*this)[I].Size / sizeof(T);
  }
  int64_t i64(size_t I) const { return (*this)[I].IntValue; }
  double f64(size_t I) const { return (*this)[I].FpValue; }

private:
  std::vector<ArgValue> Values;
};

/// Per-work-item execution context, mirroring the OpenCL built-in query
/// functions (get_global_id etc.) plus the barrier-phase index.
struct ItemCtx {
  Dim3 GlobalId;
  Dim3 LocalId;
  Dim3 GroupId;
  Dim3 LocalSize;
  Dim3 NumGroups;
  /// Barrier phase being executed (0 for barrier-free kernels). A kernel
  /// with NumPhases == P behaves as P barrier-separated regions; the engine
  /// runs phase p for all items of a work-group before phase p+1, which is
  /// exactly the guarantee a work-group barrier provides.
  int Phase = 0;
  /// Per-work-group local scratch (KernelInfo::LocalBytes), zeroed at
  /// work-group start.
  std::byte *Local = nullptr;

  uint64_t flatGroupId() const { return flattenGroupId(GroupId, NumGroups); }
};

/// Work-item body: executes one work-item (for one phase).
using WorkItemFn = std::function<void(const ItemCtx &, const ArgsView &)>;

/// Whole-work-group body: executes every work-item of the group \p GroupId
/// of a range whose work-groups are \p LocalSize items.
using WorkGroupFn =
    std::function<void(const Dim3 &GroupId, const Dim3 &LocalSize,
                       const ArgsView &)>;

/// Inputs available to a kernel's cost descriptor.
struct CostQuery {
  NDRange Range;
  std::vector<ArgValue> Scalars; // Full argument list (buffers included).
};

/// Produces the per-work-item cost for a launch.
using CostFn = std::function<hw::WorkItemCost(const CostQuery &)>;

/// A registered kernel.
struct KernelInfo {
  std::string Name;
  /// Access kind per argument, in argument order.
  std::vector<ArgAccess> Args;
  /// Barrier-separated phases (1 = no barriers).
  int NumPhases = 1;
  /// Local scratch bytes per work-group.
  uint64_t LocalBytes = 0;
  /// The kernel's definition: one work-item's body.
  WorkItemFn Fn;
  /// Optional faster form of \c Fn for one whole work-group, which
  /// executeGroups runs instead of calling \c Fn per item. It must make the
  /// same writes as running \c Fn over every item of the group, with each
  /// item's float operations in \c Fn's order, so every buffer comes out
  /// byte-identical; and no item may read what another item of the launch
  /// writes, so the items' interleaving is free. Only for barrier-free
  /// kernels without local memory (NumPhases == 1, LocalBytes == 0).
  WorkGroupFn GroupFn;
  CostFn Cost;
  /// Names of functionally-identical device-optimized variants that online
  /// profiling may choose between (paper section 6.6).
  std::vector<std::string> Variants;
  /// Kernel uses atomic primitives: FluidiCL cannot split it across
  /// devices (paper section 7) and falls back to GPU-only execution.
  bool UsesAtomics = false;
  /// A flat work-group range [a, b) writes only bytes inside the covering
  /// work-group-row band of every Out/InOut buffer (true for row-major
  /// outputs where item (x, y) writes out[y * W + x]). Enables the
  /// region-transfer extension (Options::RegionTransfers).
  bool RowContiguousOutput = false;

  /// Indices of Out/InOut buffer arguments.
  std::vector<size_t> writtenArgs() const {
    std::vector<size_t> Idx;
    for (size_t I = 0; I < Args.size(); ++I)
      if (isWrittenAccess(Args[I]))
        Idx.push_back(I);
    return Idx;
  }
};

/// Functionally executes every work-item of work-group \p GroupId through
/// \c KernelInfo::Fn, one item at a time, running all barrier phases in
/// order: the reference form of a kernel, which the access oracle probes.
/// \p LocalScratch must hold KernelInfo::LocalBytes bytes (may be null when
/// LocalBytes == 0).
void executeWorkGroup(const KernelInfo &Kernel, const NDRange &Range,
                      const Dim3 &GroupId, const ArgsView &Args,
                      std::byte *LocalScratch);

/// Functionally executes whole work-groups [Begin, End) (flattened group
/// IDs) of \p Kernel over \p Range in ascending order, each starting with
/// zeroed local memory: how every device and the host reference run a
/// kernel. Runs \c KernelInfo::GroupFn per group when the kernel has one,
/// and executeWorkGroup otherwise.
void executeGroups(const KernelInfo &Kernel, const NDRange &Range,
                   const ArgsView &Args, uint64_t Begin, uint64_t End);

} // namespace kern
} // namespace fcl

#endif // FCL_KERN_KERNEL_H

//===- fluidicl/Options.h - FluidiCL configuration --------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunables and optimization toggles of the FluidiCL runtime. The defaults
/// are the paper's configuration for the headline results (Figure 13: all
/// optimizations on except online profiling). Each toggle exists so the
/// ablation experiments (Figures 15, 17, 18 and Table 3) can reproduce the
/// paper's sensitivity studies.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_FLUIDICL_OPTIONS_H
#define FCL_FLUIDICL_OPTIONS_H

#include "check/Diag.h"
#include "hw/CostModel.h"

#include <string>

namespace fcl {
namespace fluidicl {

/// FluidiCL runtime configuration.
struct Options {
  /// Initial CPU subkernel chunk, percent of total work-groups (section
  /// 5.1; the paper uses 2%).
  double InitialChunkPct = 2.0;
  /// Chunk growth step, percent of total work-groups (paper: 2%); 0 keeps
  /// the chunk fixed (Figure 18's step-0 configuration).
  double StepPct = 2.0;
  /// Where GPU kernels check the CPU status word: AtStart reproduces the
  /// NoAbortUnroll ablation, InLoop is the full section 6.4 optimization.
  hw::AbortPolicyKind AbortPolicy = hw::AbortPolicyKind::InLoop;
  /// Manual loop unrolling after in-loop abort checks (section 6.5);
  /// disabling reproduces the NoUnroll ablation.
  bool LoopUnroll = true;
  /// CPU work-group splitting when a subkernel has fewer work-groups than
  /// compute units (section 6.3).
  bool CpuWorkGroupSplit = true;
  /// Reuse pooled GPU buffers for the orig/cpu-data copies (section 6.1).
  bool BufferPool = true;
  /// Serve clEnqueueReadBuffer from the CPU when its copy is current
  /// (section 6.2).
  bool DataLocationTracking = true;
  /// Online profiling across kernel variants (section 6.6). Off by default,
  /// matching the paper's Figure 13 configuration.
  bool OnlineProfiling = false;
  /// Master switch for cooperative execution; false degenerates to
  /// GPU-only through the FluidiCL code path (diagnostics only).
  bool UseCpu = true;
  /// Extension beyond the paper: for kernels whose flat work-group ranges
  /// write row-contiguous output bands (KernelInfo::RowContiguousOutput),
  /// stage and transfer only each subkernel's band instead of the whole
  /// out buffer. Off by default (the paper transfers whole buffers).
  bool RegionTransfers = false;
  /// fcl::check integration: Off disables all checking; Warn/Fail arm the
  /// DiagSink, ProtocolChecker and ShimLint (Fail additionally makes tools
  /// exit non-zero on error diagnostics).
  check::Policy Check = check::Policy::Off;

  /// Range rules: the initial chunk must be in (0, 100] and the step
  /// >= 0. Empty when valid, else a one-line message naming the
  /// fluidicl_sim flag. The Runtime constructor FCL_CHECKs it.
  std::string validate() const;
};

} // namespace fluidicl
} // namespace fcl

#endif // FCL_FLUIDICL_OPTIONS_H

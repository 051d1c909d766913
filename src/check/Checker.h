//===- check/Checker.h - Whole-registry safety sweep ------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the AccessOracle over whole workloads and over the entire kernel
/// registry. checkWorkload probes every kernel call of one application
/// against host reference data, advancing the host state call by call so
/// each probe sees the inputs the real run would. checkAllKernels sweeps a
/// coverage suite that collectively launches every built-in kernel
/// (including device-optimized variants) and aggregates a per-kernel
/// safety verdict — the report fluidicl_check prints.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_CHECK_CHECKER_H
#define FCL_CHECK_CHECKER_H

#include "check/AccessOracle.h"
#include "check/Diag.h"
#include "kern/Registry.h"
#include "work/Workload.h"

#include <functional>
#include <string>
#include <vector>

namespace fcl {
namespace check {

/// Aggregated safety verdict for one registered kernel.
struct KernelVerdict {
  std::string Kernel;
  /// At least one coverage call was probed to completion.
  bool Covered = false;
  uint64_t CallsProbed = 0;
  /// Calls skipped for budget (counted separately from coverage).
  uint64_t CallsSkipped = 0;
  /// Cross-work-group collisions observed: must not be split.
  bool UnsafeToSplit = false;
  /// KernelInfo::UsesAtomics (the runtime's GPU-only fallback trigger).
  bool DeclaredUnsafe = false;
  uint64_t Errors = 0;
  uint64_t Warnings = 0;

  /// One-word classification for the safety report:
  /// fluidic-safe | unsafe-declared | UNSAFE-MISDECLARED | misdeclared |
  /// conservative | not-covered.
  std::string classification() const;
};

/// Observer invoked after each probed call of checkWorkload.
using CallObserver =
    std::function<void(const work::KernelCall &, const OracleReport &)>;

/// Probes every kernel call of \p W with the AccessOracle, resolving
/// kernels in \p R and advancing host buffer state between calls with
/// work::executeCall, as work::computeReference does. Returns the number
/// of calls probed (not skipped). Diagnostics go to \p Sink.
uint64_t checkWorkload(const work::Workload &W, DiagSink &Sink,
                       const kern::Registry &R,
                       uint64_t BudgetBytes = OracleDefaultBudget,
                       const CallObserver &OnCall = {});

/// Small-sized workloads that collectively launch every built-in kernel:
/// the scaled Polybench suite plus vector/histogram/jacobi/merge coverage
/// and an auto-generated clone per registered kernel variant.
std::vector<work::Workload> coverageWorkloads();

/// Runs coverageWorkloads() against the builtin registry and aggregates
/// one verdict per registered kernel, sorted by name. Registered kernels
/// no coverage workload launches get a KernelNotCovered warning.
std::vector<KernelVerdict>
checkAllKernels(DiagSink &Sink, uint64_t BudgetBytes = OracleDefaultBudget);

/// Renders \p Verdicts as the aligned safety-report table.
std::string renderSafetyReport(const std::vector<KernelVerdict> &Verdicts);

} // namespace check
} // namespace fcl

#endif // FCL_CHECK_CHECKER_H

//===- work/Driver.h - Experiment driver ------------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a Workload under any runtime on a fresh simulated machine and
/// reports the total running time (including all data transfers, as the
/// paper measures; platform initialization is excluded). One table of
/// runtime kinds (runtimeKinds, withRuntime) builds every runtime the
/// tools and bench harnesses compare: CPU-only/GPU-only baselines, static
/// partitions (OracleSP sweeps), calibrated SOCL runs and FluidiCL with
/// arbitrary options. The host reference (computeReference) and the one
/// result check (matchesReference) live here too.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_WORK_DRIVER_H
#define FCL_WORK_DRIVER_H

#include "fluidicl/Options.h"
#include "hw/Machine.h"
#include "kern/Kernel.h"
#include "mcl/Context.h"
#include "runtime/ProfiledSplit.h"
#include "stats/Report.h"
#include "work/Workload.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace fcl {
namespace work {

/// Outcome of one application run.
struct RunResult {
  /// Total running time: buffer setup + transfers + kernels + readback.
  Duration Total;
  /// Whether functional validation was performed and its outcome.
  bool Validated = false;
  bool Valid = false;
  double MaxAbsError = 0;
};

/// Deterministic pseudo-random host data for every buffer of \p W.
std::vector<std::vector<std::byte>> initHostData(const Workload &W);

/// Executes \p Call with \p Kernel directly on \p HostBufs (indexed like
/// Workload::Buffers): every work-group of the call's range, in flat order.
void executeCall(const kern::KernelInfo &Kernel, const KernelCall &Call,
                 std::vector<std::vector<std::byte>> &HostBufs);

/// Executes \p W's kernel sequence directly on \p HostBufs (the reference
/// a correct runtime must match bit-for-bit up to float associativity -
/// our kernels are executed with identical operation order everywhere, so
/// the match is exact).
void computeReference(const Workload &W,
                      std::vector<std::vector<std::byte>> &HostBufs);

/// True when every float of \p Results (one vector per W.ResultBuffers
/// entry) is within 1e-5 + 1e-5 * |want| of \p Reference, the host
/// buffers after computeReference (indexed like W.Buffers). When given,
/// \p MaxAbsError receives the largest absolute difference.
bool matchesReference(const Workload &W,
                      const std::vector<std::vector<std::byte>> &Reference,
                      const std::vector<std::vector<std::byte>> &Results,
                      double *MaxAbsError = nullptr);

/// Runs \p W under \p RT; validates read-back results against the host
/// reference when \p Validate and the context is functional.
RunResult runWorkload(runtime::HeteroRuntime &RT, const Workload &W,
                      bool Validate);

/// The runtimes an application can run under, in the order the tools list
/// them (paper Figures 13 and 16).
enum class RuntimeKind {
  CpuOnly,
  GpuOnly,
  /// Manual split at RunConfig::GpuFraction (Figures 2/3, OracleSP).
  Static,
  SoclEager,
  SoclDmda,
  FluidiCL,
};

/// A runtime kind and the name the command-line tools give it.
struct NamedRuntime {
  const char *Name;
  RuntimeKind Kind;
};

/// Every RuntimeKind once, in enum order, with its tool name: cpu, gpu,
/// static, socl-eager, socl-dmda, fluidicl.
const std::vector<NamedRuntime> &runtimeKinds();

/// Configuration for timed comparison runs.
struct RunConfig {
  hw::Machine M = hw::paperMachine();
  mcl::ExecMode Mode = mcl::ExecMode::TimingOnly;
  fluidicl::Options FclOpts;
  /// GPU share of every kernel's work-groups under RuntimeKind::Static.
  double GpuFraction = 0.5;
};

/// Builds runtime \p K on \p Ctx from \p C and hands it to \p Fn; the
/// runtime lives until \p Fn returns. SOCL-dmda first runs \p W ten times
/// on fresh contexts to calibrate its performance model, as the paper does.
void withRuntime(RuntimeKind K, mcl::Context &Ctx, const Workload &W,
                 const RunConfig &C,
                 const std::function<void(runtime::HeteroRuntime &)> &Fn);

/// Total running time of \p W under runtime \p K on a fresh machine.
Duration timeUnder(RuntimeKind K, const Workload &W,
                   const RunConfig &C = RunConfig());

/// Packs everything a finished run produced into a RunReport: the
/// runtime's counters and per-launch records, the workload name, the
/// measured wall time, and per-lane utilization when a tracer observed
/// the run.
stats::RunReport collectRunReport(const runtime::HeteroRuntime &RT,
                                  const Workload &W, Duration Wall,
                                  const trace::Tracer *T = nullptr);

/// Like timeUnder, but returns the full run report. When \p T is non-null
/// it is attached to the fresh context for the run's whole lifetime, so
/// the report gains per-lane utilization and the tracer gains the run's
/// slices and counter tracks.
stats::RunReport reportUnder(RuntimeKind K, const Workload &W,
                             const RunConfig &C = RunConfig(),
                             trace::Tracer *T = nullptr);

/// Total running time under a manual static partition at \p GpuFraction
/// (timeUnder(RuntimeKind::Static) with C.GpuFraction replaced).
Duration timeStaticPartition(const Workload &W, double GpuFraction,
                             const RunConfig &C = RunConfig());

/// Best static partition over fractions 0, Step, 2*Step, ..., 100 percent
/// (the OracleSP bar). Reports the winning fraction via \p BestFraction.
Duration oracleStaticPartition(const Workload &W,
                               const RunConfig &C = RunConfig(),
                               int StepPct = 10,
                               double *BestFraction = nullptr);

/// Qilin-style training pass: measures each of \p W's kernels on both
/// devices of a fresh machine and records the rates into \p Model.
void trainSplitModel(const Workload &W, const hw::Machine &M,
                     runtime::SplitModel &Model);

/// Total running time of \p W under the Qilin-style profiled splitter
/// (training on \p TrainW, which may differ from W to expose the scheme's
/// input-sensitivity).
Duration timeProfiledSplit(const Workload &W, const Workload &TrainW,
                           const RunConfig &C = RunConfig());

} // namespace work
} // namespace fcl

#endif // FCL_WORK_DRIVER_H

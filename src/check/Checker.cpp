//===- check/Checker.cpp - Whole-registry safety sweep ---------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"

#include "support/Error.h"
#include "work/Driver.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace fcl;
using namespace fcl::check;

namespace {

/// Coverage workloads for the built-in kernels no Polybench application
/// launches: the vector demo kernels, the atomic histogram, the Jacobi
/// stencil and the runtime's own merge kernel.
work::Workload makeVectorCoverage() {
  work::Workload W;
  W.Name = "vector";
  W.Summary = "vec_add / saxpy / vec_scale / block_sum coverage";
  constexpr int64_t N = 128;
  W.Buffers = {{"x", N * 4}, {"y", N * 4}, {"z", N * 4}, {"partial", 4 * 4}};
  kern::NDRange R1 = kern::NDRange::of1D(N, 32);
  W.Calls.push_back({"vec_add", R1,
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
                      runtime::KArg::buffer(2), runtime::KArg::i64(N)}});
  W.Calls.push_back({"saxpy", R1,
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
                      runtime::KArg::f64(1.5), runtime::KArg::i64(N)}});
  W.Calls.push_back({"vec_scale", R1,
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(2),
                      runtime::KArg::f64(0.5), runtime::KArg::i64(N)}});
  W.Calls.push_back({"block_sum", R1,
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(3),
                      runtime::KArg::i64(N)}});
  W.ResultBuffers = {2, 3};
  return W;
}

work::Workload makeHistogramCoverage() {
  work::Workload W;
  W.Name = "histogram";
  W.Summary = "histogram_atomic coverage (hidden-RMW exemplar)";
  constexpr int64_t N = 256, Bins = 16;
  W.Buffers = {{"x", N * 4}, {"hist", Bins * 4}};
  W.Calls.push_back({"histogram_atomic", kern::NDRange::of1D(N, 32),
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
                      runtime::KArg::i64(N), runtime::KArg::i64(Bins)}});
  W.ResultBuffers = {1};
  return W;
}

work::Workload makeJacobiCoverage() {
  work::Workload W;
  W.Name = "jacobi";
  W.Summary = "jacobi2d_kernel coverage";
  constexpr int64_t N = 64;
  W.Buffers = {{"a", N * N * 4}, {"b", N * N * 4}};
  W.Calls.push_back({"jacobi2d_kernel", kern::NDRange::of2D(N, N, 32, 8),
                     {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
                      runtime::KArg::i64(N)}});
  W.ResultBuffers = {1};
  return W;
}

work::Workload makeMergeCoverage() {
  work::Workload W;
  W.Name = "merge";
  W.Summary = "md_merge_kernel coverage (cpu/orig buffers differ)";
  constexpr uint64_t Bytes = 32768;
  // initHostData seeds each buffer differently, so cpu and orig disagree
  // nearly everywhere and the merge writes most of gpu.
  W.Buffers = {{"cpu", Bytes}, {"gpu", Bytes}, {"orig", Bytes}};
  uint64_t Items = (Bytes + kern::MergeChunkBytes - 1) / kern::MergeChunkBytes;
  W.Calls.push_back(
      {"md_merge_kernel", kern::NDRange::of1D(Items, 32),
       {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
        runtime::KArg::buffer(2), runtime::KArg::i64(Bytes),
        runtime::KArg::i64(4)}});
  W.ResultBuffers = {1};
  return W;
}

} // namespace

uint64_t fcl::check::checkWorkload(const work::Workload &W, DiagSink &Sink,
                                   const kern::Registry &R,
                                   uint64_t BudgetBytes,
                                   const CallObserver &OnCall) {
  std::vector<std::vector<std::byte>> Host = work::initHostData(W);
  uint64_t Probed = 0;
  for (const work::KernelCall &Call : W.Calls) {
    const kern::KernelInfo &Kernel = R.get(Call.Kernel);
    FCL_CHECK(Kernel.Args.size() == Call.Args.size(),
              "argument arity mismatch");
    std::vector<OracleBinding> Bindings;
    for (size_t I = 0; I < Call.Args.size(); ++I) {
      const runtime::KArg &A = Call.Args[I];
      if (A.IsBuffer) {
        Bindings.push_back(OracleBinding::buffer(Host[A.Buf]));
      } else {
        OracleBinding B;
        B.IntValue = A.IntValue;
        B.FpValue = A.FpValue;
        Bindings.push_back(B);
      }
    }
    OracleReport Rep = verifyCall(Kernel, Call.Range, Bindings, Sink,
                                  BudgetBytes);
    if (Rep.Probed)
      ++Probed;
    if (OnCall)
      OnCall(Call, Rep);
    // Advance state so the next call probes against realistic inputs.
    work::executeCall(Kernel, Call, Host);
  }
  return Probed;
}

std::vector<work::Workload> fcl::check::coverageWorkloads() {
  // Small sizes: 1D globals are multiples of the 32-wide work-group, 2D
  // globals multiples of (32, 8), matching the workload constructors.
  std::vector<work::Workload> Suite;
  Suite.push_back(work::makeAtax(96, 96));
  Suite.push_back(work::makeBicg(96, 96));
  Suite.push_back(work::makeCorr(64, 64));
  Suite.push_back(work::makeGesummv(96));
  Suite.push_back(work::makeSyrk(64, 64));
  Suite.push_back(work::makeSyr2k(64, 64));
  Suite.push_back(work::makeMvt(96));
  Suite.push_back(work::makeGemm(64, 64, 64));
  Suite.push_back(work::makeCovar(64, 64));
  Suite.push_back(makeVectorCoverage());
  Suite.push_back(makeHistogramCoverage());
  Suite.push_back(makeJacobiCoverage());
  Suite.push_back(makeMergeCoverage());

  // Device-optimized variants share their primary's signature, so variant
  // coverage is the same workload with the call's kernel name substituted.
  const kern::Registry &R = kern::Registry::builtin();
  std::vector<work::Workload> WithVariants = Suite;
  for (const work::Workload &W : Suite) {
    for (size_t CI = 0; CI < W.Calls.size(); ++CI) {
      const kern::KernelInfo *Info = R.find(W.Calls[CI].Kernel);
      if (!Info)
        continue;
      for (const std::string &Variant : Info->Variants) {
        work::Workload Clone = W;
        Clone.Name = W.Name + "+" + Variant;
        Clone.Summary = "variant coverage for " + Variant;
        Clone.Calls[CI].Kernel = Variant;
        WithVariants.push_back(std::move(Clone));
      }
    }
  }
  return WithVariants;
}

std::vector<KernelVerdict> fcl::check::checkAllKernels(DiagSink &Sink,
                                                       uint64_t BudgetBytes) {
  const kern::Registry &R = kern::Registry::builtin();
  std::map<std::string, KernelVerdict> ByName;
  for (const std::string &Name : R.names()) {
    KernelVerdict V;
    V.Kernel = Name;
    V.DeclaredUnsafe = R.get(Name).UsesAtomics;
    ByName.emplace(Name, std::move(V));
  }
  for (const work::Workload &W : coverageWorkloads()) {
    checkWorkload(W, Sink, R, BudgetBytes,
                  [&](const work::KernelCall &Call, const OracleReport &Rep) {
                    KernelVerdict &V = ByName[Call.Kernel];
                    V.Kernel = Call.Kernel;
                    if (Rep.Probed) {
                      V.Covered = true;
                      ++V.CallsProbed;
                    } else {
                      ++V.CallsSkipped;
                    }
                    V.UnsafeToSplit |= Rep.SplitHazard;
                    V.Errors += Rep.Errors;
                    V.Warnings += Rep.Warnings;
                  });
  }
  std::vector<KernelVerdict> Out;
  for (auto &[Name, V] : ByName) {
    if (!V.Covered) {
      Sink.report(Diag::make(DiagKind::KernelNotCovered, Name,
                             "no coverage workload launches this kernel"));
      ++V.Warnings;
    }
    Out.push_back(V);
  }
  return Out;
}

std::string KernelVerdict::classification() const {
  if (!Covered)
    return "not-covered";
  if (UnsafeToSplit)
    return DeclaredUnsafe ? "unsafe-declared" : "UNSAFE-MISDECLARED";
  if (Errors > 0)
    return "misdeclared";
  if (DeclaredUnsafe)
    return "conservative";
  return "fluidic-safe";
}

std::string
fcl::check::renderSafetyReport(const std::vector<KernelVerdict> &Verdicts) {
  size_t NameW = 6;
  for (const KernelVerdict &V : Verdicts)
    NameW = std::max(NameW, V.Kernel.size());
  std::ostringstream OS;
  OS << "fluidic-safety report (" << Verdicts.size() << " kernels)\n";
  OS << std::string(NameW, '-')
     << "--------------------------------------------------\n";
  uint64_t Unsafe = 0, NotCovered = 0, Errors = 0;
  for (const KernelVerdict &V : Verdicts) {
    OS << V.Kernel << std::string(NameW - V.Kernel.size() + 2, ' ')
       << V.classification();
    if (V.CallsProbed)
      OS << "  calls=" << V.CallsProbed;
    if (V.CallsSkipped)
      OS << "  skipped=" << V.CallsSkipped;
    if (V.Errors)
      OS << "  errors=" << V.Errors;
    if (V.Warnings)
      OS << "  warnings=" << V.Warnings;
    OS << "\n";
    Errors += V.Errors;
    if (V.UnsafeToSplit && !V.DeclaredUnsafe)
      ++Unsafe;
    if (!V.Covered)
      ++NotCovered;
  }
  OS << std::string(NameW, '-')
     << "--------------------------------------------------\n";
  OS << "misdeclared-unsafe: " << Unsafe << "  not-covered: " << NotCovered
     << "  error diagnostics: " << Errors << "\n";
  return OS.str();
}

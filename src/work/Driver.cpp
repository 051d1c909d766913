//===- work/Driver.cpp - Experiment driver ----------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "work/Driver.h"

#include "fluidicl/Runtime.h"
#include "kern/Registry.h"
#include "runtime/SingleDevice.h"
#include "runtime/ProfiledSplit.h"
#include "runtime/StaticPartition.h"
#include "socl/SoclRuntime.h"
#include "support/Error.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>

using namespace fcl;
using namespace fcl::work;

std::vector<std::vector<std::byte>> fcl::work::initHostData(const Workload &W) {
  std::vector<std::vector<std::byte>> Bufs;
  Bufs.reserve(W.Buffers.size());
  for (size_t I = 0; I < W.Buffers.size(); ++I) {
    const BufferSpec &Spec = W.Buffers[I];
    std::vector<std::byte> Data(Spec.Bytes);
    Rng R(0xC0FFEE ^ (static_cast<uint64_t>(I) * 0x9E3779B9u));
    auto *F = reinterpret_cast<float *>(Data.data());
    for (uint64_t J = 0; J < Spec.Bytes / sizeof(float); ++J)
      F[J] = static_cast<float>(R.nextInRange(0.05, 1.0));
    Bufs.push_back(std::move(Data));
  }
  return Bufs;
}

void fcl::work::executeCall(const kern::KernelInfo &Kernel,
                            const KernelCall &Call,
                            std::vector<std::vector<std::byte>> &HostBufs) {
  std::vector<kern::ArgValue> Values;
  for (const runtime::KArg &A : Call.Args) {
    if (A.IsBuffer) {
      std::vector<std::byte> &B = HostBufs[A.Buf];
      Values.push_back(kern::ArgValue::buffer(B.data(), B.size()));
    } else {
      kern::ArgValue V;
      V.IntValue = A.IntValue;
      V.FpValue = A.FpValue;
      Values.push_back(V);
    }
  }
  kern::executeGroups(Kernel, Call.Range, kern::ArgsView(std::move(Values)),
                      0, Call.Range.totalGroups());
}

void fcl::work::computeReference(const Workload &W,
                                 std::vector<std::vector<std::byte>> &HostBufs) {
  FCL_CHECK(HostBufs.size() == W.Buffers.size(), "buffer count mismatch");
  for (const KernelCall &Call : W.Calls)
    executeCall(kern::Registry::builtin().get(Call.Kernel), Call, HostBufs);
}

bool fcl::work::matchesReference(
    const Workload &W, const std::vector<std::vector<std::byte>> &Reference,
    const std::vector<std::vector<std::byte>> &Results, double *MaxAbsError) {
  bool Match = true;
  double MaxErr = 0;
  for (size_t R = 0; R < W.ResultBuffers.size(); ++R) {
    const auto *Got = reinterpret_cast<const float *>(Results[R].data());
    const auto *Want =
        reinterpret_cast<const float *>(Reference[W.ResultBuffers[R]].data());
    uint64_t Count = Results[R].size() / sizeof(float);
    for (uint64_t J = 0; J < Count; ++J) {
      double Err = std::fabs(static_cast<double>(Got[J]) - Want[J]);
      MaxErr = std::max(MaxErr, Err);
      // Identical operation order on every path: results must agree to
      // tiny float noise (merge copies bytes verbatim). NaN fails too.
      if (!(Err <= 1e-5 + 1e-5 * std::fabs(Want[J])))
        Match = false;
    }
  }
  if (MaxAbsError)
    *MaxAbsError = MaxErr;
  return Match;
}

RunResult fcl::work::runWorkload(runtime::HeteroRuntime &RT, const Workload &W,
                                 bool Validate) {
  mcl::Context &Ctx = RT.context();
  bool Functional = Ctx.functional();

  std::vector<std::vector<std::byte>> Host;
  if (Functional)
    Host = initHostData(W);

  TimePoint Start = RT.now();

  std::vector<runtime::BufferId> Ids;
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    Ids.push_back(RT.createBuffer(W.Buffers[I].Bytes, W.Buffers[I].Name));
  for (size_t I = 0; I < W.Buffers.size(); ++I)
    RT.writeBuffer(Ids[I], Functional ? Host[I].data() : nullptr,
                   W.Buffers[I].Bytes);

  for (const KernelCall &Call : W.Calls) {
    // Remap workload-local buffer indices to runtime buffer ids.
    std::vector<runtime::KArg> Args = Call.Args;
    for (runtime::KArg &A : Args)
      if (A.IsBuffer)
        A.Buf = Ids[A.Buf];
    RT.launchKernel(Call.Kernel, Call.Range, Args);
  }

  std::vector<std::vector<std::byte>> Results;
  for (size_t RIdx : W.ResultBuffers) {
    std::vector<std::byte> Out;
    if (Functional)
      Out.resize(W.Buffers[RIdx].Bytes);
    RT.readBuffer(Ids[RIdx], Functional ? Out.data() : nullptr,
                  W.Buffers[RIdx].Bytes);
    Results.push_back(std::move(Out));
  }

  // Total running time ends when the application has its results (as the
  // paper measures); draining trailing cooperative work (e.g. a CPU
  // subkernel whose results the GPU already produced) happens afterwards.
  RunResult Res;
  Res.Total = RT.now() - Start;
  RT.finish();

  if (Validate && Functional) {
    computeReference(W, Host);
    Res.Validated = true;
    Res.Valid = matchesReference(W, Host, Results, &Res.MaxAbsError);
  }
  return Res;
}

const std::vector<NamedRuntime> &fcl::work::runtimeKinds() {
  static const std::vector<NamedRuntime> Kinds = {
      {"cpu", RuntimeKind::CpuOnly},
      {"gpu", RuntimeKind::GpuOnly},
      {"static", RuntimeKind::Static},
      {"socl-eager", RuntimeKind::SoclEager},
      {"socl-dmda", RuntimeKind::SoclDmda},
      {"fluidicl", RuntimeKind::FluidiCL},
  };
  return Kinds;
}

void fcl::work::withRuntime(
    RuntimeKind K, mcl::Context &Ctx, const Workload &W, const RunConfig &C,
    const std::function<void(runtime::HeteroRuntime &)> &Fn) {
  switch (K) {
  case RuntimeKind::CpuOnly:
  case RuntimeKind::GpuOnly: {
    runtime::SingleDeviceRuntime RT(Ctx, K == RuntimeKind::CpuOnly
                                             ? mcl::DeviceKind::Cpu
                                             : mcl::DeviceKind::Gpu);
    Fn(RT);
    return;
  }
  case RuntimeKind::Static: {
    runtime::StaticPartitionRuntime RT(Ctx, C.GpuFraction);
    Fn(RT);
    return;
  }
  case RuntimeKind::SoclEager: {
    socl::PerfModel Model;
    socl::SoclRuntime RT(Ctx, socl::Policy::Eager, Model);
    Fn(RT);
    return;
  }
  case RuntimeKind::SoclDmda: {
    // dmda places tasks by a per-kernel performance model; the paper runs
    // each application at least 10 times to calibrate it.
    constexpr int CalibrationRuns = 10;
    socl::PerfModel Model;
    for (int I = 0; I < CalibrationRuns; ++I) {
      mcl::Context CalCtx(C.M, C.Mode);
      socl::SoclRuntime Cal(CalCtx, socl::Policy::Dmda, Model,
                            /*Calibrating=*/true,
                            /*TaskSeed=*/static_cast<uint64_t>(I));
      runWorkload(Cal, W, false);
    }
    socl::SoclRuntime RT(Ctx, socl::Policy::Dmda, Model);
    Fn(RT);
    return;
  }
  case RuntimeKind::FluidiCL: {
    fluidicl::Runtime RT(Ctx, C.FclOpts);
    Fn(RT);
    return;
  }
  }
  FCL_UNREACHABLE("covered switch");
}

Duration fcl::work::timeUnder(RuntimeKind K, const Workload &W,
                              const RunConfig &C) {
  mcl::Context Ctx(C.M, C.Mode);
  Duration Total;
  withRuntime(K, Ctx, W, C, [&](runtime::HeteroRuntime &RT) {
    Total = runWorkload(RT, W, false).Total;
  });
  return Total;
}

stats::RunReport
fcl::work::collectRunReport(const runtime::HeteroRuntime &RT,
                            const Workload &W, Duration Wall,
                            const trace::Tracer *T) {
  stats::RunReport Rep;
  Rep.WorkloadName = W.Name;
  Rep.Wall = Wall;
  RT.collectStats(Rep);
  Rep.Counters.add("sim_events_executed",
                   RT.context().simulator().eventsExecuted());
  if (T)
    Rep.addUtilizationFromTracer(*T, Wall);
  return Rep;
}

stats::RunReport fcl::work::reportUnder(RuntimeKind K, const Workload &W,
                                        const RunConfig &C,
                                        trace::Tracer *T) {
  mcl::Context Ctx(C.M, C.Mode);
  Ctx.setTracer(T);
  stats::RunReport Rep;
  withRuntime(K, Ctx, W, C, [&](runtime::HeteroRuntime &RT) {
    Rep = collectRunReport(RT, W, runWorkload(RT, W, false).Total, T);
  });
  return Rep;
}

Duration fcl::work::timeStaticPartition(const Workload &W, double GpuFraction,
                                        const RunConfig &C) {
  RunConfig Split = C;
  Split.GpuFraction = GpuFraction;
  return timeUnder(RuntimeKind::Static, W, Split);
}

Duration fcl::work::oracleStaticPartition(const Workload &W,
                                          const RunConfig &C, int StepPct,
                                          double *BestFraction) {
  FCL_CHECK(StepPct > 0 && StepPct <= 100, "bad oracle step");
  Duration Best = Duration::nanoseconds(INT64_MAX);
  double BestFrac = 0;
  for (int Pct = 0; Pct <= 100; Pct += StepPct) {
    Duration T = timeStaticPartition(W, Pct / 100.0, C);
    if (T < Best) {
      Best = T;
      BestFrac = Pct / 100.0;
    }
  }
  if (BestFraction)
    *BestFraction = BestFrac;
  return Best;
}

void fcl::work::trainSplitModel(const Workload &W, const hw::Machine &M,
                                runtime::SplitModel &Model) {
  for (int D = 0; D < 2; ++D) {
    mcl::DeviceKind Kind =
        D == 0 ? mcl::DeviceKind::Cpu : mcl::DeviceKind::Gpu;
    mcl::Context Ctx(M, mcl::ExecMode::TimingOnly);
    runtime::SingleDeviceRuntime RT(Ctx, Kind);
    for (size_t B = 0; B < W.Buffers.size(); ++B)
      RT.createBuffer(W.Buffers[B].Bytes, W.Buffers[B].Name);
    for (const KernelCall &Call : W.Calls)
      Model.record(Call.Kernel, Kind,
                   RT.kernelOnlyDuration(Call.Kernel, Call.Range, Call.Args));
  }
}

Duration fcl::work::timeProfiledSplit(const Workload &W,
                                      const Workload &TrainW,
                                      const RunConfig &C) {
  runtime::SplitModel Model;
  trainSplitModel(TrainW, C.M, Model);
  mcl::Context Ctx(C.M, C.Mode);
  runtime::ProfiledSplitRuntime RT(Ctx, Model);
  return runWorkload(RT, W, false).Total;
}

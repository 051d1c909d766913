//===- mcl/GpuEngine.cpp - Simulated discrete GPU device -------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/GpuEngine.h"

#include "hw/CostModel.h"
#include "mcl/Context.h"
#include "support/Error.h"
#include "support/Log.h"

#include <algorithm>
#include <limits>
#include <memory>

using namespace fcl;
using namespace fcl::mcl;

GpuEngine::GpuEngine(Context &Ctx) : Device(Ctx, DeviceKind::Gpu, "SimGPU") {}

int GpuEngine::computeUnits() const { return Ctx.machine().Gpu.NumSms; }

TimePoint GpuEngine::scheduleTransfer(TransferDir Dir, uint64_t Bytes) {
  int Idx = Dir == TransferDir::HostToDevice ? 0 : 1;
  TimePoint Start = std::max(ChannelFree[Idx], Ctx.now());
  TimePoint End = Start + Ctx.machine().Pcie.transferTime(Bytes);
  ChannelFree[Idx] = End;
  return End;
}

Duration GpuEngine::copyDuration(uint64_t Bytes) const {
  // Device-to-device copy: read + write device memory.
  double Seconds = 2.0 * static_cast<double>(Bytes) /
                   Ctx.machine().Gpu.MemBandwidth *
                   Ctx.machine().GpuLoadFactor;
  return Duration::microseconds(4) + Duration::seconds(Seconds);
}

static hw::WorkItemCost launchCost(const LaunchDesc &Desc) {
  kern::CostQuery Query;
  Query.Range = Desc.Range;
  for (const LaunchArg &A : Desc.Args) {
    kern::ArgValue V;
    V.IntValue = A.IntValue;
    V.FpValue = A.FpValue;
    Query.Scalars.push_back(V);
  }
  return Desc.Kernel->Cost(Query);
}

Duration GpuEngine::launchDuration(const LaunchDesc &Desc) const {
  const hw::Machine &M = Ctx.machine();
  uint64_t Begin = Desc.clampedBegin();
  uint64_t End = Desc.clampedEnd();
  uint64_t Groups = End > Begin ? End - Begin : 0;
  if (Groups == 0)
    return M.Gpu.KernelLaunchOverhead;
  hw::WorkItemCost Cost = launchCost(Desc);
  uint64_t Items = Desc.Range.itemsPerGroup();
  uint64_t Wave = static_cast<uint64_t>(M.Gpu.waveWidth());
  uint64_t FullWaves = Groups / Wave;
  uint64_t Tail = Groups % Wave;
  Duration D = M.Gpu.KernelLaunchOverhead;
  if (FullWaves > 0)
    D += hw::gpuWaveTime(M, Cost, Desc.Abort, Wave * Items) *
         static_cast<int64_t>(FullWaves);
  if (Tail > 0)
    D += hw::gpuWaveTime(M, Cost, Desc.Abort, Tail * Items);
  return D;
}

/// Event-driven execution state of one GPU kernel launch. Waves of
/// work-groups run back to back; each wave is divided into checkpoint
/// segments (1 segment unless in-loop aborts are enabled); at each segment
/// boundary the CPU-completion boundary is re-read and covered work-groups
/// abort, shortening the remainder of the wave.
struct GpuEngine::Run : std::enable_shared_from_this<GpuEngine::Run> {
  GpuEngine *Eng = nullptr;
  LaunchDesc Desc;
  std::function<void(uint64_t)> Complete;
  hw::WorkItemCost Cost;
  uint64_t ItemsPerWg = 0;
  uint64_t RangeEnd = 0;
  uint64_t NextWg = 0;
  uint64_t Executed = 0;

  // In-flight wave state.
  uint64_t WaveBegin = 0;
  uint64_t WaveEnd = 0;
  uint64_t Live = 0; // Work-groups still executing in the wave.
  int Checkpoint = 0;
  int NumCheckpoints = 1;

  /// Smallest flat ID the GPU must still execute up to (exclusive): the
  /// NDRange end, lowered by the CPU-completion boundary when one is wired.
  uint64_t currentLimit() const {
    uint64_t Limit = RangeEnd;
    if (Desc.AbortBoundary && Desc.Abort.Kind != hw::AbortPolicyKind::None) {
      uint64_t B = Desc.AbortBoundary();
      Limit = std::min(Limit, B);
    }
    return std::max(Limit, Desc.clampedBegin());
  }

  /// Occupancy counter track: live work-groups on the device right now.
  void sampleLive(uint64_t Value) const {
    if (trace::Tracer *T = Eng->Ctx.tracer())
      T->counter(Eng->name() + " live work-groups", Eng->Ctx.now(),
                 static_cast<double>(Value));
  }

  void start() {
    auto Self = shared_from_this();
    Eng->Ctx.simulator().scheduleAfter(
        Eng->Ctx.machine().Gpu.KernelLaunchOverhead,
        [Self] { Self->beginWave(); });
  }

  void beginWave() {
    uint64_t Limit = currentLimit();
    if (NextWg >= Limit) {
      finish();
      return;
    }
    uint64_t Wave = static_cast<uint64_t>(Eng->Ctx.machine().Gpu.waveWidth());
    WaveBegin = NextWg;
    WaveEnd = std::min(Limit, WaveBegin + Wave);
    NextWg = WaveEnd;
    Live = WaveEnd - WaveBegin;
    NumCheckpoints = hw::gpuWaveCheckpoints(Cost, Desc.Abort);
    Checkpoint = 0;
    sampleLive(Live);
    scheduleSegment();
  }

  /// Schedules the next checkpoint segment of the in-flight wave: the time
  /// remaining for Live work-groups, split evenly over the remaining
  /// checkpoints.
  void scheduleSegment() {
    Duration WaveRemaining = hw::gpuWaveTime(Eng->Ctx.machine(), Cost,
                                             Desc.Abort, Live * ItemsPerWg);
    int SegmentsLeft = NumCheckpoints - Checkpoint;
    Duration Segment =
        Duration::nanoseconds((WaveRemaining.nanos() *
                               (NumCheckpoints - Checkpoint) /
                               NumCheckpoints) /
                              SegmentsLeft);
    auto Self = shared_from_this();
    Eng->Ctx.simulator().scheduleAfter(Segment,
                                       [Self] { Self->atCheckpoint(); });
  }

  void atCheckpoint() {
    ++Checkpoint;
    // Re-read the status word; in-flight work-groups now covered by the
    // CPU abort at their next in-loop check (section 6.4).
    if (Desc.Abort.Kind == hw::AbortPolicyKind::InLoop) {
      uint64_t Limit = currentLimit();
      uint64_t NewLive =
          Limit >= WaveEnd
              ? WaveEnd - WaveBegin
              : (Limit > WaveBegin ? Limit - WaveBegin : 0);
      if (NewLive < Live) {
        if (Desc.Counters)
          Desc.Counters->GroupsWasted += Live - NewLive;
        Live = NewLive;
        sampleLive(Live);
      }
    }
    if (Checkpoint >= NumCheckpoints || Live == 0) {
      commitWave();
      return;
    }
    scheduleSegment();
  }

  void commitWave() {
    // Surviving work-groups [WaveBegin, WaveBegin + Live) completed;
    // aborted ones left no observable writes (their data comes from the
    // CPU and the merge step).
    if (Live > 0 && Eng->Ctx.functional()) {
      FCL_LOG_DEBUG("gpu commit %s wave [%llu,%llu) at t=%lld",
                    Desc.Kernel->Name.c_str(),
                    (unsigned long long)WaveBegin,
                    (unsigned long long)(WaveBegin + Live),
                    (long long)Eng->Ctx.now().nanos());
      kern::executeGroups(*Desc.Kernel, Desc.Range, resolveArgs(*Eng, Desc),
                          WaveBegin, WaveBegin + Live);
    }
    Executed += Live;
    beginWave();
  }

  void finish() {
    sampleLive(0);
    auto Done = std::move(Complete);
    Done(Executed);
  }
};

void GpuEngine::executeLaunch(const LaunchDesc &Desc,
                              std::function<void(uint64_t)> Complete) {
  auto R = std::make_shared<Run>();
  R->Eng = this;
  R->Desc = Desc;
  R->Complete = std::move(Complete);
  R->Cost = launchCost(Desc);
  R->ItemsPerWg = Desc.Range.itemsPerGroup();
  R->RangeEnd = Desc.clampedEnd();
  R->NextWg = Desc.clampedBegin();
  R->start();
}

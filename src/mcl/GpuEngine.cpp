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

GpuEngine::GpuEngine(Context &Ctx)
    : Device(Ctx, DeviceKind::Gpu, "SimGPU"),
      LiveTrack(name() + " live work-groups") {}

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
/// segments (1 segment unless in-loop aborts are enabled) and has one
/// pending event, at its last checkpoint. With in-loop checks the run
/// watches the CPU status word instead of polling it: a lowering that cuts
/// the wave's live work-groups moves the event to the first checkpoint the
/// wave has not yet passed at or after the lowering, where the covered
/// work-groups abort and the rest of the wave is re-timed. The superseded
/// event stays queued and does nothing when it fires, because it carries
/// an older generation.
struct GpuEngine::Run : std::enable_shared_from_this<GpuEngine::Run> {
  GpuEngine *Eng = nullptr;
  LaunchDesc Desc;
  std::function<void(uint64_t)> Complete;
  hw::WorkItemCost Cost;
  uint64_t ItemsPerWg = 0;
  uint64_t RangeEnd = 0;
  uint64_t NextWg = 0;
  uint64_t Executed = 0;

  // In-flight wave state (all zero before the first wave).
  uint64_t WaveBegin = 0;
  uint64_t WaveEnd = 0;
  uint64_t Live = 0; // Work-groups still executing in the wave.
  int NumCheckpoints = 1;
  /// The last checkpoint the wave passed (0 = wave start), and when.
  int Checkpoint = 0;
  TimePoint CheckpointAt;
  /// Length of each remaining segment for the current Live.
  Duration Segment;
  /// Checkpoint of the one live pending event, and its generation.
  int EventCheckpoint = 0;
  uint64_t Gen = 0;

  /// Smallest flat ID the GPU must still execute up to (exclusive): the
  /// NDRange end, lowered by the CPU status word when one is wired.
  uint64_t currentLimit() const {
    uint64_t Limit = RangeEnd;
    if (Desc.Status && Desc.Abort.Kind != hw::AbortPolicyKind::None)
      Limit = std::min(Limit, Desc.Status->value());
    return std::max(Limit, Desc.clampedBegin());
  }

  /// Work-groups of the in-flight wave the status word leaves alive.
  uint64_t liveUnderLimit() const {
    uint64_t Limit = currentLimit();
    if (Limit >= WaveEnd)
      return WaveEnd - WaveBegin;
    return Limit > WaveBegin ? Limit - WaveBegin : 0;
  }

  /// True when in-loop checks re-read a status word mid-wave.
  bool watchesStatus() const {
    return Desc.Status && Desc.Abort.Kind == hw::AbortPolicyKind::InLoop;
  }

  /// Occupancy counter track: live work-groups on the device right now.
  void sampleLive(uint64_t Value) const {
    if (trace::Tracer *T = Eng->Ctx.tracer())
      T->counter(Eng->LiveTrack, Eng->Ctx.now(), static_cast<double>(Value));
  }

  void start() {
    if (watchesStatus())
      Desc.Status->watch([Weak = weak_from_this()] {
        if (auto Self = Weak.lock())
          Self->statusLowered();
      });
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
    sampleLive(Live);
    retime(0);
  }

  /// The wave reached checkpoint \p K now. Each remaining segment lasts
  /// one NumCheckpoints-th of a whole wave of the Live work-groups,
  /// truncated to whole nanoseconds; the event goes at the last checkpoint.
  void retime(int K) {
    Checkpoint = K;
    CheckpointAt = Eng->Ctx.now();
    Duration Wave = hw::gpuWaveTime(Eng->Ctx.machine(), Cost, Desc.Abort,
                                    Live * ItemsPerWg);
    Segment = Duration::nanoseconds(Wave.nanos() / NumCheckpoints);
    scheduleCheckpoint(NumCheckpoints);
  }

  /// Makes checkpoint \p K the wave's one live event.
  void scheduleCheckpoint(int K) {
    EventCheckpoint = K;
    uint64_t G = ++Gen;
    auto Self = shared_from_this();
    Eng->Ctx.simulator().scheduleAt(
        CheckpointAt + Segment * static_cast<int64_t>(K - Checkpoint),
        [Self, K, G] {
          if (G == Self->Gen)
            Self->atCheckpoint(K);
        });
  }

  /// Status-word watcher. A lowering that cuts the live work-groups is
  /// seen at the first checkpoint not yet passed whose time is at or after
  /// now. Before the first wave nothing is live to cut: beginWave reads
  /// the word, and finish() stops watching.
  void statusLowered() {
    if (liveUnderLimit() >= Live)
      return;
    int64_t Since = (Eng->Ctx.now() - CheckpointAt).nanos();
    int64_t Seg = Segment.nanos();
    int64_t Ahead = Seg > 0 ? (Since + Seg - 1) / Seg : 0;
    int K = Checkpoint + static_cast<int>(std::max<int64_t>(1, Ahead));
    if (K < EventCheckpoint)
      scheduleCheckpoint(K);
  }

  void atCheckpoint(int K) {
    // Re-read the status word; in-flight work-groups now covered by the
    // CPU abort at this in-loop check (section 6.4).
    if (Desc.Abort.Kind == hw::AbortPolicyKind::InLoop) {
      uint64_t NewLive = liveUnderLimit();
      if (NewLive < Live) {
        if (Desc.Counters)
          Desc.Counters->GroupsWasted += Live - NewLive;
        Live = NewLive;
        sampleLive(Live);
      }
    }
    if (K >= NumCheckpoints || Live == 0) {
      commitWave();
      return;
    }
    retime(K);
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
    if (watchesStatus())
      Desc.Status->watch(nullptr);
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

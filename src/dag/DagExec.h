//===- dag/DagExec.h - Compound-job DAG executor ----------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one compound serve job - a dag::Graph over a work::Workload -
/// cooperatively across the CPU+GPU pair without ever blocking the
/// simulator. Each ready node is placed on the device minimizing estimated
/// completion time (queue backlog + missing-input transfers + modeled
/// compute); with Placement::Residency, inputs already resident where the
/// node runs skip their transfers entirely, which is the subsystem's whole
/// point: dependent kernels placed at their producer pay zero PCIe cost for
/// the produced data. Placement::Blind is the independent-jobs baseline -
/// every node uploads its inputs from the host and reads its outputs back,
/// exactly what submitting each kernel as its own serve job costs.
///
/// Independent branches overlap: the executor owns one in-order queue per
/// device and launches every dependency-satisfied node immediately, so a
/// fan-out DAG keeps both devices busy at once.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_DAG_DAGEXEC_H
#define FCL_DAG_DAGEXEC_H

#include "dag/Graph.h"
#include "dag/Residency.h"
#include "serve/JobExec.h"

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace fcl {
namespace trace {
class Tracer;
}

namespace dag {

/// Runs one DAG job across both devices; plugs into serve::JobExec like the
/// cooperative and single-device executors.
class DagJobExec final : public serve::JobExec {
public:
  /// \p G must describe \p W and both must outlive the executor. \p Stats
  /// (optional) accumulates transfer/node accounting across jobs; \p Trace
  /// (optional) gets one "Serve DAG" slice per node.
  DagJobExec(mcl::Context &Ctx, const work::Workload &W, const Graph &G,
             Placement Place, serve::HostData *Host, bool Validate,
             DagStats *Stats, trace::Tracer *Trace);
  ~DagJobExec() override;

  void start(DoneFn OnDone) override;
  bool quiescent() const override {
    return Steps.idle() && Qs[GpuIdx]->idle() && Qs[CpuIdx]->idle();
  }

private:
  static constexpr size_t GpuIdx = 0;
  static constexpr size_t CpuIdx = 1;
  static Loc devLoc(size_t D) { return D == GpuIdx ? Loc::Gpu : Loc::Cpu; }

  /// Launches the lowest ready node unless another node's launch calls
  /// are still being issued: the job's host issues one node's calls at a
  /// time, and launchDone() comes back here for the next one.
  void pump();
  void launchNode(size_t N);
  /// Issues node \p N's buffer call \p I (its writes, then its reads): a
  /// missing device buffer is created first, then a read is skipped,
  /// uploaded or fetched across devices. Each API call is one host step.
  void launchStep(size_t N, size_t I);
  /// Node \p N's last launch call is issued: its kernel is enqueued unless
  /// fetches are still in flight, and the next ready node launches.
  void launchDone(size_t N);
  void fetchLanded(size_t N, size_t B, size_t D, uint64_t Bytes);
  /// Enqueues node \p N's kernel after one API call's host time, then runs
  /// \p Then.
  template <class Fn> void enqueueKernelNode(size_t N, Fn Then);
  void onKernelComplete(size_t N);
  /// Blind placement's read-back of node \p N's write \p I, one API call
  /// each; after the last, the node retires once the reads land.
  void readBackStep(size_t N, size_t I);
  void nodeRetired(size_t N);
  /// Reads result buffer \p R back to the host unless the host holds it,
  /// one API call each; after the last, the job finishes when both queues
  /// drain.
  void finishStep(size_t R);

  /// Whether transfers touching device \p D cross the PCIe link.
  bool pciePriced(size_t D) const;
  void accountTransfer(size_t D, uint64_t Bytes);

  /// Estimated nanoseconds to run node \p N's kernel on device \p D.
  double computeNs(size_t N, size_t D) const;
  /// Estimated nanoseconds of input (and, blind, output) transfers node
  /// \p N pays when placed on \p D, given current residency.
  double transferNs(size_t N, size_t D) const;
  /// Estimated nanoseconds to move \p Bytes to or from device \p D.
  double xferNs(size_t D, uint64_t Bytes) const;
  size_t pickDevice(size_t N) const;

  const Graph &G;
  Placement Place;
  DagStats *Stats;
  trace::Tracer *Trace;

  std::array<std::unique_ptr<mcl::CommandQueue>, 2> Qs;
  /// One lazily-created device buffer per workload buffer per device.
  std::vector<std::array<std::unique_ptr<mcl::Buffer>, 2>> Bufs;
  /// Host-side transfer medium: uploads source from it, fetches and final
  /// reads land in it.
  std::vector<std::vector<std::byte>> Stage; // Functional mode only.

  ResidencyTracker Res;
  std::vector<size_t> Indegree;
  std::vector<size_t> NodeDevice;
  std::vector<TimePoint> NodeStart;
  std::vector<double> NodeEstNs;
  /// Cross-device input fetches still in flight before the node's kernel
  /// can be enqueued.
  std::vector<size_t> FetchesLeft;
  std::vector<size_t> ReadyList;
  /// True while a node's launch calls are being issued.
  bool Launching = false;
  /// Estimated nanoseconds of work already committed to each device.
  double BacklogNs[2] = {0, 0};
  size_t DoneN = 0;
  size_t TailsLeft = 0;
};

} // namespace dag
} // namespace fcl

#endif // FCL_DAG_DAGEXEC_H

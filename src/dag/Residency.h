//===- dag/Residency.h - Buffer residency tracking --------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks which memories hold the current version of each workload buffer
/// while a DAG job executes across the CPU+GPU pair. A buffer starts valid
/// at the host; a device write invalidates every other copy; an explicit
/// copy adds a location without bumping the version. A dependent kernel
/// placed where its producer ran finds its inputs already resident and
/// skips the redundant PCIe transfer - the core saving the residency-aware
/// placement in dag::DagJobExec is after (building on the idea behind
/// fluidicl::VersionTracker, but at whole-buffer granularity across an
/// entire compound job instead of work-group regions within one launch).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_DAG_RESIDENCY_H
#define FCL_DAG_RESIDENCY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fcl {
namespace dag {

/// A memory that can hold a buffer copy.
enum class Loc : uint8_t { Host = 0, Gpu = 1, Cpu = 2 };

/// How DagJobExec places DAG nodes on the pair.
enum class Placement {
  /// Residency-scored: each ready node goes to the device minimizing
  /// estimated (missing-input transfer + compute + backlog) time, and
  /// inputs already resident at the chosen device skip their transfers.
  Residency,
  /// Residency-blind baseline: every node runs like an independent job -
  /// all inputs are uploaded from the host and all outputs are read back
  /// to the host, exactly what running the DAG as separate single-kernel
  /// jobs would pay.
  Blind,
};

/// Parses "residency" or "blind"; returns false for anything else.
bool parsePlacement(const std::string &Name, Placement &Out);
const char *placementName(Placement P);

/// Transfer accounting a DagJobExec feeds (the serve engine aggregates one
/// of these across all DAG jobs of a run).
struct DagStats {
  uint64_t Jobs = 0;
  uint64_t Nodes = 0;
  uint64_t GpuNodes = 0;
  uint64_t CpuNodes = 0;
  /// Transfers performed (H2D, D2H, and both legs of cross-device moves).
  uint64_t Transfers = 0;
  uint64_t TransferBytes = 0;
  /// Subset of TransferBytes that crossed the PCIe link (GPU endpoints,
  /// plus CPU endpoints on machines whose CPU device sits behind PCIe).
  uint64_t PcieBytes = 0;
  /// Input transfers skipped because the buffer was already resident at
  /// the node's device, and the bytes they would have moved.
  uint64_t TransfersSkipped = 0;
  uint64_t BytesSaved = 0;
};

/// Per-buffer version + valid-copy-set tracker.
class ResidencyTracker {
public:
  explicit ResidencyTracker(size_t NumBuffers)
      : Valid(NumBuffers, hostBit()), Version(NumBuffers, 0) {}

  /// True when \p At holds the current version of buffer \p B.
  bool has(size_t B, Loc At) const { return (Valid[B] & bit(At)) != 0; }

  /// A device produced a new version of \p B: every other copy is stale.
  void noteWrite(size_t B, Loc At) {
    Valid[B] = bit(At);
    ++Version[B];
  }

  /// The current version of \p B was copied to \p At.
  void noteCopy(size_t B, Loc At) { Valid[B] |= bit(At); }

  uint64_t version(size_t B) const { return Version[B]; }

  /// The single device holding the current version when it is not at the
  /// host (the source of a cross-device fetch). Host if host-resident.
  Loc owner(size_t B) const {
    if (has(B, Loc::Host))
      return Loc::Host;
    return has(B, Loc::Gpu) ? Loc::Gpu : Loc::Cpu;
  }

private:
  static uint8_t bit(Loc L) {
    return static_cast<uint8_t>(1u << static_cast<uint8_t>(L));
  }
  static uint8_t hostBit() { return bit(Loc::Host); }

  std::vector<uint8_t> Valid;
  std::vector<uint64_t> Version;
};

} // namespace dag
} // namespace fcl

#endif // FCL_DAG_RESIDENCY_H

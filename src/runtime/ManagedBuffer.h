//===- runtime/ManagedBuffer.h - Host-shadowed device buffers ---*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A buffer with a host shadow and lazily-created, validity-tracked copies
/// on each device. This is the data-management bookkeeping a careful
/// *manual* multi-device implementation keeps (and what the SOCL-style
/// scheduler automates at task granularity): upload before use, download
/// before host reads, invalidate on writes. FluidiCL has its own richer
/// machinery (versions, merge buffers) in fluidicl/. ManagedRuntime holds
/// the buffer table the baseline runtimes share.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_RUNTIME_MANAGEDBUFFER_H
#define FCL_RUNTIME_MANAGEDBUFFER_H

#include "mcl/Buffer.h"
#include "mcl/CommandQueue.h"
#include "mcl/Context.h"
#include "runtime/HeteroRuntime.h"

#include <memory>
#include <string>
#include <vector>

namespace fcl {
namespace runtime {

/// Host-shadowed, multi-device buffer with MSI-like validity tracking.
class ManagedBuffer {
public:
  ManagedBuffer(mcl::Context &Ctx, uint64_t Size, std::string DebugName);

  uint64_t size() const { return Size; }
  const std::string &debugName() const { return DebugName; }

  /// Host shadow storage (empty in TimingOnly mode).
  std::byte *hostData() { return Shadow.empty() ? nullptr : Shadow.data(); }

  /// Overwrites the shadow from host memory and invalidates all device
  /// copies (the host now holds the only valid version).
  void writeFromHost(const void *Src, uint64_t Bytes);

  /// Device-side mcl buffer for \p Dev, created on first use.
  mcl::Buffer &on(mcl::Device &Dev);

  bool hostValid() const { return HostIsValid; }
  bool validOn(mcl::Device &Dev) const;

  /// Ensures \p Dev has the current data, enqueuing an upload on \p Queue
  /// if its copy is stale. The host copy must be valid or the device copy
  /// already current. Returns the transfer event (or null if none needed).
  mcl::EventPtr ensureOn(mcl::Device &Dev, mcl::CommandQueue &Queue);

  /// Ensures the host shadow is current, reading back (blocking) from a
  /// valid device over \p Queue when necessary. \p Queue must target a
  /// device with a valid copy if the host is stale.
  void ensureHost(mcl::CommandQueue &Queue);

  /// Marks \p Dev as the sole holder of the current data (after a kernel
  /// wrote the buffer there).
  void markDeviceExclusive(mcl::Device &Dev);

  /// Marks the host shadow as current without touching device validity
  /// (after a host-side merge).
  void markHostCurrent();

  /// Marks every device copy stale, keeping the host valid.
  void invalidateDevices();

  /// The first device holding a valid copy, or null.
  mcl::Device *anyValidDevice() const;

private:
  struct DeviceSlot {
    mcl::Device *Dev = nullptr;
    std::unique_ptr<mcl::Buffer> Buf;
    bool Valid = false;
  };

  DeviceSlot &slotFor(mcl::Device &Dev);
  const DeviceSlot *findSlot(const mcl::Device &Dev) const;

  mcl::Context &Ctx;
  uint64_t Size;
  std::string DebugName;
  std::vector<std::byte> Shadow;
  bool HostIsValid = true;
  std::vector<DeviceSlot> Slots;
};

/// Base of the baseline runtimes that manage data by hand with
/// ManagedBuffers (single-device, static partition, SOCL): the buffer
/// table, host writes that invalidate every device copy, and blocking
/// reads served from the host shadow.
class ManagedRuntime : public HeteroRuntime {
public:
  BufferId createBuffer(uint64_t Size, std::string DebugName) override;
  void writeBuffer(BufferId Id, const void *Src, uint64_t Bytes) override;
  void readBuffer(BufferId Id, void *Dst, uint64_t Bytes) override;

protected:
  explicit ManagedRuntime(mcl::Context &Ctx) : HeteroRuntime(Ctx) {}

  ManagedBuffer &buf(BufferId Id);
  /// Makes \p B's host shadow current: a stale one is read back (blocking)
  /// over queueFor() the device holding the data. Only one device does
  /// while the host is stale, since a device upload needs a valid host.
  void fetchToHost(ManagedBuffer &B);
  /// The queue that moves data to and from \p Dev.
  virtual mcl::CommandQueue &queueFor(mcl::Device &Dev) = 0;

private:
  std::vector<std::unique_ptr<ManagedBuffer>> Buffers;
};

} // namespace runtime
} // namespace fcl

#endif // FCL_RUNTIME_MANAGEDBUFFER_H

//===- runtime/ManagedBuffer.cpp - Host-shadowed device buffers -----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ManagedBuffer.h"

#include "support/Error.h"

#include <cstring>

using namespace fcl;
using namespace fcl::runtime;

ManagedBuffer::ManagedBuffer(mcl::Context &Ctx, uint64_t Size,
                             std::string DebugName)
    : Ctx(Ctx), Size(Size), DebugName(std::move(DebugName)) {
  FCL_CHECK(Size > 0, "zero-sized managed buffer");
  if (Ctx.functional())
    Shadow.assign(Size, std::byte{0});
}

void ManagedBuffer::writeFromHost(const void *Src, uint64_t Bytes) {
  FCL_CHECK(Bytes <= Size, "host write overruns buffer");
  if (!Shadow.empty() && Src)
    std::memcpy(Shadow.data(), Src, Bytes);
  HostIsValid = true;
  for (DeviceSlot &S : Slots)
    S.Valid = false;
}

ManagedBuffer::DeviceSlot &ManagedBuffer::slotFor(mcl::Device &Dev) {
  for (DeviceSlot &S : Slots)
    if (S.Dev == &Dev)
      return S;
  Ctx.hostThen(Ctx.machine().Host.bufferCreateTime(Size), [] {});
  DeviceSlot S;
  S.Dev = &Dev;
  S.Buf = Ctx.createBuffer(Dev, Size, DebugName);
  S.Valid = false;
  Slots.push_back(std::move(S));
  return Slots.back();
}

const ManagedBuffer::DeviceSlot *
ManagedBuffer::findSlot(const mcl::Device &Dev) const {
  for (const DeviceSlot &S : Slots)
    if (S.Dev == &Dev)
      return &S;
  return nullptr;
}

mcl::Buffer &ManagedBuffer::on(mcl::Device &Dev) { return *slotFor(Dev).Buf; }

bool ManagedBuffer::validOn(mcl::Device &Dev) const {
  const DeviceSlot *S = findSlot(Dev);
  return S && S->Valid;
}

mcl::EventPtr ManagedBuffer::ensureOn(mcl::Device &Dev,
                                      mcl::CommandQueue &Queue) {
  DeviceSlot &S = slotFor(Dev);
  if (S.Valid)
    return nullptr;
  FCL_CHECK(HostIsValid, "no valid source for device upload");
  FCL_CHECK(&Queue.device() == &Dev, "upload queue targets wrong device");
  mcl::EventPtr E =
      Queue.enqueueWrite(*S.Buf, Shadow.empty() ? nullptr : Shadow.data(),
                         Size);
  S.Valid = true; // Valid once the in-order queue reaches later commands.
  return E;
}

void ManagedBuffer::ensureHost(mcl::CommandQueue &Queue) {
  if (HostIsValid)
    return;
  const DeviceSlot *S = findSlot(Queue.device());
  FCL_CHECK(S && S->Valid, "no valid device copy to read back from");
  Queue.enqueueRead(*S->Buf, Shadow.empty() ? nullptr : Shadow.data(), Size,
                    0, /*Blocking=*/true);
  HostIsValid = true;
}

void ManagedBuffer::markDeviceExclusive(mcl::Device &Dev) {
  HostIsValid = false;
  for (DeviceSlot &S : Slots)
    S.Valid = S.Dev == &Dev;
  // Ensure the slot exists even if nothing touched it yet.
  slotFor(Dev).Valid = true;
}

void ManagedBuffer::markHostCurrent() { HostIsValid = true; }

void ManagedBuffer::invalidateDevices() {
  FCL_CHECK(HostIsValid, "invalidating devices without a valid host copy");
  for (DeviceSlot &S : Slots)
    S.Valid = false;
}

mcl::Device *ManagedBuffer::anyValidDevice() const {
  for (const DeviceSlot &S : Slots)
    if (S.Valid)
      return S.Dev;
  return nullptr;
}

BufferId ManagedRuntime::createBuffer(uint64_t Size, std::string DebugName) {
  Ctx.hostThen(Ctx.machine().Host.ApiCallOverhead, [] {});
  Buffers.push_back(
      std::make_unique<ManagedBuffer>(Ctx, Size, std::move(DebugName)));
  return static_cast<BufferId>(Buffers.size() - 1);
}

void ManagedRuntime::writeBuffer(BufferId Id, const void *Src,
                                 uint64_t Bytes) {
  Ctx.hostThen(Ctx.machine().Host.ApiCallOverhead, [] {});
  buf(Id).writeFromHost(Src, Bytes);
}

void ManagedRuntime::readBuffer(BufferId Id, void *Dst, uint64_t Bytes) {
  Ctx.hostThen(Ctx.machine().Host.ApiCallOverhead, [] {});
  ManagedBuffer &B = buf(Id);
  FCL_CHECK(Bytes <= B.size(), "read overruns buffer");
  fetchToHost(B);
  if (Dst && B.hostData())
    std::memcpy(Dst, B.hostData(), Bytes);
}

void ManagedRuntime::fetchToHost(ManagedBuffer &B) {
  if (B.hostValid())
    return;
  mcl::Device *Src = B.anyValidDevice();
  FCL_CHECK(Src != nullptr, "buffer has no valid copy anywhere");
  B.ensureHost(queueFor(*Src));
}

ManagedBuffer &ManagedRuntime::buf(BufferId Id) {
  FCL_CHECK(Id < Buffers.size(), "invalid buffer id");
  return *Buffers[Id];
}

//===- fluidicl/BufferPool.h - Pooled GPU scratch buffers -------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FluidiCL needs two extra GPU buffers per written buffer per kernel (the
/// "original data" snapshot and the incoming-CPU-data buffer). Creating and
/// destroying them every kernel is expensive, so section 6.1 keeps a pool:
/// acquire returns the smallest free pooled buffer that fits (or creates
/// one), release returns it, and end-of-kernel reclamation frees buffers
/// that have not been used for a while.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_FLUIDICL_BUFFERPOOL_H
#define FCL_FLUIDICL_BUFFERPOOL_H

#include "mcl/Buffer.h"
#include "mcl/Context.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fcl {
namespace fluidicl {

/// Size-indexed pool of reusable GPU buffers.
class BufferPool {
public:
  /// \p Enabled false degenerates to create-on-acquire / destroy-on-release
  /// (the no-pooling ablation).
  BufferPool(mcl::Context &Ctx, mcl::Device &Dev, bool Enabled);

  /// Shadow-object name for the fcl::race analyzer (empty disables).
  void setRaceObject(std::string Name) { RaceObj = std::move(Name); }

  /// Returns a buffer with size() >= \p Size. A miss creates a new one and
  /// sets *\p CreateTime (when given) to the driver's buffer-creation
  /// overhead, which the caller charges as host time; a hit sets it to zero.
  mcl::Buffer *acquire(uint64_t Size, Duration *CreateTime = nullptr);

  /// Returns \p Buf to the pool (or destroys it when pooling is disabled).
  void release(mcl::Buffer *Buf);

  /// End-of-kernel reclamation: frees pooled buffers not used within the
  /// last \p MaxIdleKernels kernels and advances the kernel epoch.
  void endKernelReclaim(uint64_t MaxIdleKernels = 8);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  /// Total bytes of buffers the pool had to create (each miss's size).
  uint64_t bytesCreated() const { return BytesCreated; }
  size_t freeCount() const { return Free.size(); }
  /// Buffers handed out by acquire() and not yet released (0 after a clean
  /// run; the ProtocolChecker flags anything else as a scratch leak).
  size_t inUseCount() const { return InUse.size(); }

private:
  struct Entry {
    std::unique_ptr<mcl::Buffer> Buf;
    uint64_t LastUsedEpoch = 0;
  };

  void raceWrite(const char *What) const;

  mcl::Context &Ctx;
  mcl::Device &Dev;
  std::string RaceObj;
  bool Enabled;
  uint64_t Epoch = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t BytesCreated = 0;
  std::vector<Entry> Free;
  std::vector<std::unique_ptr<mcl::Buffer>> InUse;
};

} // namespace fluidicl
} // namespace fcl

#endif // FCL_FLUIDICL_BUFFERPOOL_H

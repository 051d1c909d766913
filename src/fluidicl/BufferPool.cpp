//===- fluidicl/BufferPool.cpp - Pooled GPU scratch buffers ---------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fluidicl/BufferPool.h"

#include "race/Race.h"
#include "support/Error.h"

#include <algorithm>

using namespace fcl;
using namespace fcl::fluidicl;

void BufferPool::raceWrite(const char *What) const {
  if (!RaceObj.empty() && race::Analyzer::enabled())
    race::Analyzer::instance().sharedWrite(RaceObj, What);
}

BufferPool::BufferPool(mcl::Context &Ctx, mcl::Device &Dev, bool Enabled)
    : Ctx(Ctx), Dev(Dev), Enabled(Enabled) {}

mcl::Buffer *BufferPool::acquire(uint64_t Size, Duration *CreateTime) {
  raceWrite("acquire");
  FCL_CHECK(Size > 0, "zero-sized pool request");
  if (CreateTime)
    *CreateTime = Duration::zero();
  if (Enabled) {
    // Smallest free buffer that fits.
    size_t BestIdx = Free.size();
    for (size_t I = 0; I < Free.size(); ++I) {
      if (Free[I].Buf->size() < Size)
        continue;
      if (BestIdx == Free.size() ||
          Free[I].Buf->size() < Free[BestIdx].Buf->size())
        BestIdx = I;
    }
    if (BestIdx != Free.size()) {
      ++Hits;
      InUse.push_back(std::move(Free[BestIdx].Buf));
      Free.erase(Free.begin() + static_cast<ptrdiff_t>(BestIdx));
      return InUse.back().get();
    }
  }
  ++Misses;
  BytesCreated += Size;
  if (CreateTime)
    *CreateTime = Ctx.machine().Host.bufferCreateTime(Size);
  InUse.push_back(Ctx.createBuffer(Dev, Size, "fcl-pool"));
  return InUse.back().get();
}

void BufferPool::release(mcl::Buffer *Buf) {
  raceWrite("release");
  auto It = std::find_if(InUse.begin(), InUse.end(),
                         [Buf](const std::unique_ptr<mcl::Buffer> &P) {
                           return P.get() == Buf;
                         });
  FCL_CHECK(It != InUse.end(), "releasing a buffer the pool does not own");
  if (Enabled) {
    Entry E;
    E.Buf = std::move(*It);
    E.LastUsedEpoch = Epoch;
    Free.push_back(std::move(E));
  }
  InUse.erase(It);
}

void BufferPool::endKernelReclaim(uint64_t MaxIdleKernels) {
  raceWrite("endKernelReclaim");
  ++Epoch;
  if (!Enabled)
    return;
  std::erase_if(Free, [this, MaxIdleKernels](const Entry &E) {
    return Epoch - E.LastUsedEpoch > MaxIdleKernels;
  });
}

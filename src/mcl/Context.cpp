//===- mcl/Context.cpp - MiniCL context ------------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/Context.h"

#include "mcl/CommandQueue.h"
#include "mcl/CpuEngine.h"
#include "mcl/GpuEngine.h"

using namespace fcl;
using namespace fcl::mcl;

Context::Context(const hw::Machine &M, ExecMode Mode)
    : M(M), Mode(Mode), Cpu(std::make_unique<CpuEngine>(*this)),
      Gpu(std::make_unique<GpuEngine>(*this)) {}

Context::~Context() = default;

std::unique_ptr<Buffer> Context::createBuffer(Device &Dev, uint64_t Size,
                                              std::string DebugName) {
  return std::make_unique<Buffer>(Dev, Size, functional(),
                                  std::move(DebugName));
}

std::unique_ptr<CommandQueue> Context::createQueue(Device &Dev,
                                                   std::string DebugName) {
  return std::make_unique<CommandQueue>(*this, Dev, std::move(DebugName));
}

//===- check/AccessOracle.cpp - Observed-access verification --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "check/AccessOracle.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cstring>

using namespace fcl;
using namespace fcl::check;

namespace {

/// XOR pattern applied to one buffer per perturbation run. Any nonzero
/// pattern works; 0xA5 flips bits in both nibbles so float payloads change
/// visibly.
constexpr std::byte PerturbMask{0xA5};

/// Shadow state for one buffer argument.
struct BufProbe {
  size_t ArgIndex = 0;
  uint64_t Size = 0;
  /// Bytes of the covering row band when the row-contiguity check applies
  /// to this argument, 0 otherwise.
  uint64_t BandBytes = 0;
  std::vector<std::byte> Base;      // pristine contents
  std::vector<std::byte> Perturbed; // Base ^ mask (written candidates only)
  std::vector<std::byte> Work;      // the copy the kernel runs against
  std::vector<std::byte> Res0;      // current group's baseline result
  std::vector<uint32_t> FirstWriter; // per byte: 0 = unwritten, else group+1
  std::vector<std::byte> FirstValue; // value the first writer left behind
  std::vector<uint8_t> Rmw;       // byte's value depends on own prior contents
  std::vector<uint8_t> CurWritten;   // current group's write bitmap
  std::vector<uint32_t> CurOffsets;  // current group's written offsets
  ArgObservation Obs;
};

} // namespace

OracleReport fcl::check::verifyCall(const kern::KernelInfo &Kernel,
                                    const kern::NDRange &Range,
                                    const std::vector<OracleBinding> &Args,
                                    DiagSink &Sink, uint64_t BudgetBytes) {
  const size_t NumArgs = Kernel.Args.size();
  FCL_CHECK(Args.size() == NumArgs, "oracle binding count mismatch");

  OracleReport Rep;
  Rep.Args.resize(NumArgs);

  const uint64_t TotalGroups = Range.totalGroups();
  const kern::Dim3 Groups = Range.numGroups();
  const uint64_t RowLen = Range.dims() == 1 ? 1 : Groups.X;
  const uint64_t NumRows = RowLen ? TotalGroups / RowLen : 0;

  std::vector<BufProbe> Bufs;
  uint64_t SumBytes = 0;
  for (size_t I = 0; I < NumArgs; ++I) {
    if (Kernel.Args[I] == kern::ArgAccess::Scalar) {
      FCL_CHECK(!Args[I].Host, "scalar argument bound to a buffer");
      continue;
    }
    FCL_CHECK(Args[I].Host, "buffer argument needs a host vector");
    BufProbe P;
    P.ArgIndex = I;
    P.Base = *Args[I].Host;
    P.Size = P.Base.size();
    FCL_CHECK(P.Size > 0, "empty buffer argument");
    const bool Written = isWrittenAccess(Kernel.Args[I]);
    if (Kernel.RowContiguousOutput && Written && NumRows &&
        P.Size % NumRows == 0)
      P.BandBytes = P.Size / NumRows;
    if (Written) {
      P.Perturbed = P.Base;
      for (std::byte &B : P.Perturbed)
        B ^= PerturbMask;
    }
    P.Work = P.Base;
    P.Res0.resize(P.Size);
    P.FirstWriter.assign(P.Size, 0);
    P.FirstValue.assign(P.Size, std::byte{0});
    P.Rmw.assign(P.Size, 0);
    P.CurWritten.assign(P.Size, 0);
    SumBytes += P.Size;
    Bufs.push_back(std::move(P));
  }

  // Perturbation candidates: every declared-written buffer argument.
  std::vector<size_t> Cands;
  for (size_t PI = 0; PI < Bufs.size(); ++PI)
    if (isWrittenAccess(Kernel.Args[Bufs[PI].ArgIndex]))
      Cands.push_back(PI);

  // Every run re-copies and re-scans every buffer once.
  const uint64_t Estimate = TotalGroups * (1 + Cands.size()) * SumBytes * 2;
  if (Estimate > BudgetBytes) {
    Sink.report(Diag::make(
        DiagKind::CheckSkippedTooLarge, Kernel.Name,
        formatString("probe cost %llu bytes exceeds oracle budget %llu; "
                     "re-run with a smaller problem size to verify this call",
                     (unsigned long long)Estimate,
                     (unsigned long long)BudgetBytes)));
    return Rep;
  }
  Rep.Probed = true;

  std::vector<kern::ArgValue> Values(NumArgs);
  for (size_t I = 0; I < NumArgs; ++I) {
    if (Kernel.Args[I] == kern::ArgAccess::Scalar) {
      Values[I].IntValue = Args[I].IntValue;
      Values[I].FpValue = Args[I].FpValue;
    }
  }
  for (BufProbe &P : Bufs)
    Values[P.ArgIndex] = kern::ArgValue::buffer(P.Work.data(), P.Size);
  const kern::ArgsView View(Values);

  std::vector<std::byte> Scratch(Kernel.LocalBytes);
  auto Exec = [&](uint64_t Flat) {
    if (!Scratch.empty())
      std::memset(Scratch.data(), 0, Scratch.size());
    kern::executeWorkGroup(Kernel, Range, kern::unflattenGroupId(Flat, Groups),
                           View, Scratch.data());
  };

  const uint64_t ErrBefore = Sink.errorCount();
  const uint64_t WarnBefore = Sink.warningCount();
  std::vector<uint8_t> PriorDep(NumArgs, 0);

  for (uint64_t G = 0; G < TotalGroups; ++G) {
    // Baseline run against pristine contents.
    for (BufProbe &P : Bufs)
      std::memcpy(P.Work.data(), P.Base.data(), P.Size);
    Exec(G);
    for (BufProbe &P : Bufs) {
      std::memcpy(P.Res0.data(), P.Work.data(), P.Size);
      P.CurOffsets.clear();
      for (uint64_t B = 0; B < P.Size; ++B)
        if (P.Res0[B] != P.Base[B]) {
          P.CurWritten[B] = 1;
          P.CurOffsets.push_back(static_cast<uint32_t>(B));
        }
    }

    // One perturbation run per written candidate: flip that buffer's prior
    // contents and compare outcomes against the baseline run.
    for (size_t CI : Cands) {
      for (size_t PI = 0; PI < Bufs.size(); ++PI) {
        BufProbe &P = Bufs[PI];
        std::memcpy(P.Work.data(),
                    PI == CI ? P.Perturbed.data() : P.Base.data(), P.Size);
      }
      Exec(G);
      const size_t CandArg = Bufs[CI].ArgIndex;
      for (size_t PI = 0; PI < Bufs.size(); ++PI) {
        BufProbe &P = Bufs[PI];
        const std::byte *Ref =
            PI == CI ? P.Perturbed.data() : P.Base.data();
        for (uint64_t B = 0; B < P.Size; ++B) {
          const bool WroteNow = P.Work[B] != Ref[B];
          const bool WroteBase = P.CurWritten[B] != 0;
          // A write only the perturbed run could see (the baseline write
          // coincided with the pristine byte) still belongs to the write
          // set.
          if (WroteNow && !WroteBase) {
            P.CurWritten[B] = 1;
            P.CurOffsets.push_back(static_cast<uint32_t>(B));
          }
          // Prior-contents dependence: the byte was written in at least
          // one of the two runs AND the outcomes differ. Comparing final
          // values (not write-set membership) is what keeps value
          // coincidences — a write landing on the pristine byte, or on
          // the perturbed byte — from being misread as dependence.
          if ((WroteNow || WroteBase) && P.Work[B] != P.Res0[B]) {
            PriorDep[CandArg] = 1;
            if (PI == CI)
              P.Rmw[B] = 1;
          }
        }
      }
    }

    // Fold the group's consolidated write set into the cross-group maps.
    for (BufProbe &P : Bufs) {
      const uint64_t Row = G / RowLen;
      for (uint32_t B : P.CurOffsets) {
        const uint32_t Prev = P.FirstWriter[B];
        if (Prev == 0) {
          P.FirstWriter[B] = static_cast<uint32_t>(G) + 1;
          P.FirstValue[B] = P.Res0[B];
        } else if (Prev != static_cast<uint32_t>(G) + 1) {
          if (P.Rmw[B])
            ++P.Obs.RmwCollisionBytes;
          else if (P.FirstValue[B] == P.Res0[B])
            ++P.Obs.BenignOverlapBytes;
          else
            ++P.Obs.LostUpdateBytes;
        }
        if (P.BandBytes &&
            (B < Row * P.BandBytes || B >= (Row + 1) * P.BandBytes))
          ++P.Obs.RowBandEscapes;
        P.CurWritten[B] = 0;
      }
    }
  }

  // Aggregate observations and emit diagnostics.
  bool AnyCollision = false;
  for (BufProbe &P : Bufs) {
    for (uint64_t B = 0; B < P.Size; ++B)
      if (P.FirstWriter[B])
        ++P.Obs.BytesWritten;
    P.Obs.PriorContentsDependence = PriorDep[P.ArgIndex] != 0;
    if (P.Obs.RmwCollisionBytes || P.Obs.LostUpdateBytes)
      AnyCollision = true;
  }

  for (BufProbe &P : Bufs) {
    const kern::ArgAccess Decl = Kernel.Args[P.ArgIndex];
    const ArgObservation &O = P.Obs;
    const int AI = static_cast<int>(P.ArgIndex);
    if (Decl == kern::ArgAccess::In && O.BytesWritten)
      Sink.report(Diag::make(
          DiagKind::WriteToReadOnlyArg, Kernel.Name,
          formatString("declared In but %llu of %llu bytes were written; "
                       "FluidiCL would neither duplicate nor merge this "
                       "buffer, corrupting it on split execution",
                       (unsigned long long)O.BytesWritten,
                       (unsigned long long)P.Size),
          AI));
    if (kern::isWrittenAccess(Decl) && O.BytesWritten == 0) {
      Diag D = Diag::make(
          DiagKind::UnwrittenOutArg, Kernel.Name,
          formatString("declared %s but no work-group wrote it; the "
                       "duplicate/merge cost is paid for nothing",
                       Decl == kern::ArgAccess::Out ? "Out" : "InOut"),
          AI);
      // An InOut that happens not to be written for this shape is wasteful
      // but not corrupting; a silent Out is a misdeclaration.
      if (Decl == kern::ArgAccess::InOut)
        D.Sev = Severity::Warning;
      Sink.report(std::move(D));
    }
    if (Decl == kern::ArgAccess::Out && O.PriorContentsDependence)
      Sink.report(Diag::make(
          DiagKind::OutArgReadsPriorContents, Kernel.Name,
          "declared Out but written values depend on the buffer's prior "
          "contents; must be InOut or results are lost when FluidiCL "
          "substitutes the unmerged duplicate",
          AI));
    if (O.RowBandEscapes)
      Sink.report(Diag::make(
          DiagKind::RowBandViolation, Kernel.Name,
          formatString("declared RowContiguousOutput but %llu written bytes "
                       "fall outside the writing group's row band",
                       (unsigned long long)O.RowBandEscapes),
          AI));
    if (!Kernel.UsesAtomics) {
      if (O.RmwCollisionBytes)
        Sink.report(Diag::make(
            DiagKind::HiddenAtomicHazard, Kernel.Name,
            formatString("%llu bytes see read-modify-write collisions from "
                         "multiple work-groups without UsesAtomics; split "
                         "execution loses increments",
                         (unsigned long long)O.RmwCollisionBytes),
            AI));
      if (O.LostUpdateBytes)
        Sink.report(Diag::make(
            DiagKind::CrossGroupWriteOverlap, Kernel.Name,
            formatString("%llu bytes are written with differing values by "
                         "multiple work-groups; the byte-level merge picks "
                         "an arbitrary winner",
                         (unsigned long long)O.LostUpdateBytes),
            AI));
      if (O.BenignOverlapBytes)
        Sink.report(Diag::make(
            DiagKind::BenignWriteOverlap, Kernel.Name,
            formatString("%llu bytes are written identically by multiple "
                         "work-groups; merge-safe today but fragile",
                         (unsigned long long)O.BenignOverlapBytes),
            AI));
    }
  }
  if (Kernel.UsesAtomics) {
    if (AnyCollision)
      Sink.report(Diag::make(
          DiagKind::UnsafeSplitDeclared, Kernel.Name,
          "cross-work-group collisions observed; correctly classified "
          "unsafe-to-split (GPU-only fallback, paper section 7)"));
    else
      Sink.report(Diag::make(
          DiagKind::DeclaredAtomicsUnobserved, Kernel.Name,
          "declared UsesAtomics but this probe observed no cross-work-group "
          "collision; classification is conservative but safe"));
  }

  Rep.SplitHazard = AnyCollision;
  Rep.Errors = Sink.errorCount() - ErrBefore;
  Rep.Warnings = Sink.warningCount() - WarnBefore;
  for (BufProbe &P : Bufs)
    Rep.Args[P.ArgIndex] = P.Obs;
  return Rep;
}

//===- support/Format.cpp - printf-style string formatting ---------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cstdarg>
#include <cstdio>

using namespace fcl;

std::string fcl::formatStringV(const char *Fmt, va_list Args) {
  // One pass into a stack buffer covers nearly every call; only a longer
  // result is measured by that pass and formatted again at its size.
  char Buf[256];
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(Buf, sizeof(Buf), Fmt, Copy);
  va_end(Copy);
  if (Needed <= 0)
    return std::string();
  if (static_cast<size_t>(Needed) < sizeof(Buf))
    return std::string(Buf, static_cast<size_t>(Needed));
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, Args);
  return Result;
}

std::string fcl::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Result = formatStringV(Fmt, Args);
  va_end(Args);
  return Result;
}

void fcl::appendJsonEscaped(std::string &Out, std::string_view S) {
  // Copy runs of plain bytes whole; only the bytes JSON needs escaped are
  // handled one at a time.
  size_t Plain = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Plain, I - Plain);
    Plain = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      const char Hex[] = "0123456789abcdef";
      char U[6] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
      Out.append(U, sizeof(U));
    }
    }
  }
  Out.append(S.data() + Plain, S.size() - Plain);
}

bool fcl::writeFile(const std::string &Path, std::string_view Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  bool Closed = std::fclose(F) == 0;
  return Written == Contents.size() && Closed;
}

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
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Needed <= 0)
    return std::string();
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

std::string fcl::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

void fcl::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      continue;
    case '\\':
      Out += "\\\\";
      continue;
    case '\n':
      Out += "\\n";
      continue;
    case '\t':
      Out += "\\t";
      continue;
    case '\r':
      Out += "\\r";
      continue;
    default:
      break;
    }
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += formatString("\\u%04x", static_cast<unsigned>(
                                         static_cast<unsigned char>(C)));
      continue;
    }
    Out += C;
  }
}

bool fcl::writeFile(const std::string &Path, std::string_view Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  bool Closed = std::fclose(F) == 0;
  return Written == Contents.size() && Closed;
}

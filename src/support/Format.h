//===- support/Format.h - printf-style string formatting ------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small printf-style formatting helpers returning std::string, JSON string
/// escaping, and the one helper that writes a rendered document to a file.
/// Used instead of iostreams throughout the library (iostream is avoided
/// per the LLVM coding standards this project follows).
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_FORMAT_H
#define FCL_SUPPORT_FORMAT_H

#include <string>
#include <string_view>

namespace fcl {

/// Formats like vsnprintf into a std::string.
std::string formatStringV(const char *Fmt, va_list Args);

/// Formats like snprintf into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
std::string formatString(const char *Fmt, ...);

/// Appends \p S to \p Out escaped for inclusion inside a JSON string
/// literal: quotes and backslashes are backslash-escaped, control
/// characters become \uXXXX. Shared by every JSON emitter (JsonWriter, the
/// Chrome trace) so no interpolation site can produce invalid JSON from a
/// hostile kernel or buffer name.
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Writes \p Contents to \p Path byte for byte; false if the file cannot
/// be opened or fully written.
bool writeFile(const std::string &Path, std::string_view Contents);

} // namespace fcl

#endif // FCL_SUPPORT_FORMAT_H

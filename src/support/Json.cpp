//===- support/Json.cpp - Streaming JSON writer ---------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Error.h"
#include "support/Format.h"

#include <charconv>

using namespace fcl;

JsonWriter &JsonWriter::open(char Bracket, Layout L) {
  FCL_CHECK(Depth < MaxDepth, "JSON nesting too deep");
  unsigned Indent = 0;
  if (Depth) {
    const Frame &Parent = Stack[Depth - 1];
    Indent = Parent.L == Block ? Parent.Indent + 2
             : Parent.L == Flush ? 0
                                 : Parent.Indent;
  }
  Stack[Depth++] = {Bracket == '{' ? '}' : ']', L, /*Empty=*/true, Indent};
  Out += Bracket;
  return *this;
}

JsonWriter &JsonWriter::element() {
  if (!Depth)
    return *this;
  Frame &F = Stack[Depth - 1];
  if (F.L == Inline) {
    if (!F.Empty)
      Out += ", ";
  } else {
    if (!F.Empty)
      Out += ',';
    Out += '\n';
    Out.append(F.L == Block ? F.Indent + 2 : 0, ' ');
  }
  F.Empty = false;
  return *this;
}

JsonWriter &JsonWriter::member(std::string_view Key) {
  element().Out += '"';
  appendJsonEscaped(Out, Key);
  Out += "\": ";
  return *this;
}

JsonWriter &JsonWriter::quoted(std::string_view V) {
  Out += '"';
  appendJsonEscaped(Out, V);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::end() {
  FCL_CHECK(Depth > 0, "JSON end() without an open container");
  const Frame &F = Stack[--Depth];
  if (F.L != Inline && !F.Empty) {
    Out += '\n';
    Out.append(F.Indent, ' ');
  }
  Out += F.Close;
  if (!Depth)
    Out += '\n';
  return *this;
}

JsonWriter &JsonWriter::num(std::string_view Key, const char *Fmt, double V) {
  member(Key).Out += formatString(Fmt, V);
  return *this;
}

JsonWriter &JsonWriter::num(std::string_view Key, uint64_t V) {
  char Buf[24];
  member(Key).Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  return *this;
}

JsonWriter &JsonWriter::num(std::string_view Key, int V) {
  char Buf[16];
  member(Key).Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  return *this;
}

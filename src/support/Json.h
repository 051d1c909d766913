//===- support/Json.h - Streaming JSON writer -------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer behind every report document (serve, cluster and
/// run reports). It appends straight to a caller-owned string and
/// builds no tree: the caller opens containers, writes members in order
/// and closes them; the writer places commas, newlines and indentation and
/// escapes every string. Floats take the printf format the caller gives,
/// so each schema fixes its own precision and identical inputs always
/// serialize to identical bytes.
///
///   JsonWriter W(Out);
///   W.object().str("schema", "x-v1").num("seed", Seed);
///   W.object("e2e", JsonWriter::Inline).num("p50", "%.6f", P50).end();
///   W.end(); // {\n  "schema": "x-v1",\n  "seed": 7,\n  "e2e": {...}\n}\n
///
/// Chrome traces do not use it: trace::Tracer keeps its own compact
/// one-event-per-line emitter on the trace hot path.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_JSON_H
#define FCL_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

namespace fcl {

class JsonWriter {
public:
  /// How a container places its members.
  enum Layout {
    Block,  ///< One member per line, two spaces deeper than the container.
    Inline, ///< All members on the container's line, ", "-separated.
    Flush,  ///< One member per line at column 0: embeds whole documents.
  };

  explicit JsonWriter(std::string &Out) : Out(Out) {}

  /// Opens an object or array as the document root or an array element;
  /// the keyed forms open a member of the enclosing object.
  JsonWriter &object(Layout L = Block) { return element().open('{', L); }
  JsonWriter &object(std::string_view Key, Layout L = Block) {
    return member(Key).open('{', L);
  }
  JsonWriter &array(Layout L = Block) { return element().open('[', L); }
  JsonWriter &array(std::string_view Key, Layout L = Block) {
    return member(Key).open('[', L);
  }
  /// Closes the innermost container; an empty one closes as "{}" or "[]".
  /// Closing the root ends the document with a newline.
  JsonWriter &end();

  JsonWriter &str(std::string_view Key, std::string_view V) {
    return member(Key).quoted(V);
  }
  /// A string array element.
  JsonWriter &str(std::string_view V) { return element().quoted(V); }
  /// A float member in printf format \p Fmt (e.g. "%.6f").
  JsonWriter &num(std::string_view Key, const char *Fmt, double V);
  JsonWriter &num(std::string_view Key, uint64_t V);
  JsonWriter &num(std::string_view Key, int V);
  JsonWriter &boolean(std::string_view Key, bool V) {
    member(Key).Out += V ? "true" : "false";
    return *this;
  }

private:
  struct Frame {
    char Close;
    Layout L;
    bool Empty;
    /// Column of the line the container opens and closes on.
    unsigned Indent;
  };
  static constexpr unsigned MaxDepth = 8;

  JsonWriter &open(char Bracket, Layout L);
  /// Separator and indentation before the next member or element.
  JsonWriter &element();
  JsonWriter &member(std::string_view Key);
  JsonWriter &quoted(std::string_view V);

  std::string &Out;
  Frame Stack[MaxDepth];
  unsigned Depth = 0;
};

} // namespace fcl

#endif // FCL_SUPPORT_JSON_H

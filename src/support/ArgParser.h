//===- support/ArgParser.h - Tiny command-line parser -----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal declarative command-line parser for the tools: long options
/// only ("--name=value" or "--name value" for valued options, "--name" for
/// booleans), with typed accessors, defaults, and generated --help text.
/// An option whose declared default is a number takes only numbers: parse()
/// rejects any other value, so a typo never silently becomes 0.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SUPPORT_ARGPARSER_H
#define FCL_SUPPORT_ARGPARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fcl {

/// Declarative long-option parser.
class ArgParser {
public:
  explicit ArgParser(std::string ProgramName, std::string Summary);

  /// Declares a boolean flag (present => true).
  void addFlag(const std::string &Name, const std::string &Help);

  /// Declares a string option with a default.
  void addOption(const std::string &Name, const std::string &Help,
                 const std::string &Default);

  /// Parses argv (excluding argv[0]). Returns false (and fills error())
  /// on unknown options, missing values, or a value that is not one
  /// complete, finite number for an option with a numeric default.
  /// "--help" sets helpRequested().
  bool parse(int Argc, const char *const *Argv);

  bool helpRequested() const { return HelpRequested; }
  const std::string &error() const { return Error; }

  /// What a tool prints to stderr when parse() fails: "error: <error()>",
  /// then the help text - except after a bad value, which stays one line.
  std::string errorText() const;

  bool flag(const std::string &Name) const;
  const std::string &str(const std::string &Name) const;
  /// The value as an integer; a fractional or exponent spelling that
  /// parse() admitted ("2.5", "1e3") truncates toward zero, saturating.
  int64_t i64(const std::string &Name) const;
  double f64(const std::string &Name) const;

  /// True when the option was given explicitly (not defaulted).
  bool given(const std::string &Name) const;

  /// Positional arguments (everything not starting with "--").
  const std::vector<std::string> &positional() const { return Positional; }

  /// Generated usage text.
  std::string helpText() const;

private:
  struct Decl {
    std::string Help;
    /// As declared; --help shows it, whatever parse() stored in Value.
    std::string Default;
    std::string Value;
    bool IsFlag = false;
    bool Given = false;
  };

  const Decl &get(const std::string &Name) const;

  std::string ProgramName;
  std::string Summary;
  std::map<std::string, Decl> Decls;
  std::vector<std::string> Order;
  std::vector<std::string> Positional;
  std::string Error;
  /// The last parse() failed on a value, not on the command line's shape.
  bool BadValue = false;
  bool HelpRequested = false;
};

} // namespace fcl

#endif // FCL_SUPPORT_ARGPARSER_H

//===- support/ArgParser.cpp - Tiny command-line parser --------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

using namespace fcl;

namespace {

/// True when \p S spells one complete, finite number ("8", "0.25", "1e3"):
/// no leading blanks, no trailing characters, no inf or nan.
bool isNumber(const std::string &S) {
  if (S.empty() || std::isspace(static_cast<unsigned char>(S.front())))
    return false;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  return *End == '\0' && std::isfinite(V);
}

} // namespace

ArgParser::ArgParser(std::string ProgramName, std::string Summary)
    : ProgramName(std::move(ProgramName)), Summary(std::move(Summary)) {}

void ArgParser::addFlag(const std::string &Name, const std::string &Help) {
  Decl D;
  D.Help = Help;
  D.IsFlag = true;
  D.Value = "0";
  FCL_CHECK(Decls.emplace(Name, std::move(D)).second, "duplicate option");
  Order.push_back(Name);
}

void ArgParser::addOption(const std::string &Name, const std::string &Help,
                          const std::string &Default) {
  Decl D;
  D.Help = Help;
  D.Default = Default;
  D.Value = Default;
  FCL_CHECK(Decls.emplace(Name, std::move(D)).second, "duplicate option");
  Order.push_back(Name);
}

bool ArgParser::parse(int Argc, const char *const *Argv) {
  BadValue = false;
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      continue;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }
    auto It = Decls.find(Name);
    if (It == Decls.end()) {
      Error = formatString("unknown option '--%s'", Name.c_str());
      return false;
    }
    Decl &D = It->second;
    if (D.IsFlag) {
      if (HasValue) {
        Error = formatString("flag '--%s' takes no value", Name.c_str());
        return false;
      }
      D.Value = "1";
      D.Given = true;
      continue;
    }
    if (!HasValue) {
      if (I + 1 >= Argc) {
        Error = formatString("option '--%s' needs a value", Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    if (isNumber(D.Default) && !isNumber(Value)) {
      Error = formatString("option '--%s' expects a number (got '%s')",
                           Name.c_str(), Value.c_str());
      BadValue = true;
      return false;
    }
    D.Value = Value;
    D.Given = true;
  }
  return true;
}

std::string ArgParser::errorText() const {
  std::string Out = "error: " + Error + "\n";
  return BadValue ? Out : Out + helpText();
}

const ArgParser::Decl &ArgParser::get(const std::string &Name) const {
  auto It = Decls.find(Name);
  if (It == Decls.end())
    fatalError(__FILE__, __LINE__,
               formatString("undeclared option '%s'", Name.c_str()).c_str());
  return It->second;
}

bool ArgParser::flag(const std::string &Name) const {
  return get(Name).Value == "1";
}

const std::string &ArgParser::str(const std::string &Name) const {
  return get(Name).Value;
}

int64_t ArgParser::i64(const std::string &Name) const {
  const char *V = get(Name).Value.c_str();
  char *End = nullptr;
  long long I = std::strtoll(V, &End, 10);
  if (*End == '\0')
    return I;
  double D = std::trunc(std::strtod(V, nullptr));
  if (D >= 0x1p63)
    return INT64_MAX;
  return D > -0x1p63 ? static_cast<int64_t>(D) : INT64_MIN;
}

double ArgParser::f64(const std::string &Name) const {
  return std::strtod(get(Name).Value.c_str(), nullptr);
}

bool ArgParser::given(const std::string &Name) const {
  return get(Name).Given;
}

std::string ArgParser::helpText() const {
  std::string Out = ProgramName + " - " + Summary + "\n\noptions:\n";
  for (const std::string &Name : Order) {
    const Decl &D = Decls.at(Name);
    std::string Left = "  --" + Name + (D.IsFlag ? "" : "=<value>");
    Out += formatString("%-32s %s", Left.c_str(), D.Help.c_str());
    if (!D.IsFlag && !D.Default.empty())
      Out += formatString(" (default: %s)", D.Default.c_str());
    Out += '\n';
  }
  Out += "  --help                           show this help\n";
  return Out;
}

//===- support/Csv.cpp - CSV writer ---------------------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Csv.h"

#include "support/Error.h"
#include "support/Format.h"

using namespace fcl;

static std::string escapeCell(const std::string &Cell) {
  bool NeedsQuote = Cell.find_first_of(",\"\n") != std::string::npos;
  if (!NeedsQuote)
    return Cell;
  std::string Out = "\"";
  for (char C : Cell) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

CsvWriter::CsvWriter(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void CsvWriter::addRow(std::vector<std::string> Cells) {
  FCL_CHECK(Cells.size() == Header.size(), "csv row arity mismatch");
  Rows.push_back(std::move(Cells));
}

std::string CsvWriter::render() const {
  std::string Out;
  auto AppendRow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I) {
      Out += escapeCell(Row[I]);
      if (I + 1 != Row.size())
        Out += ',';
    }
    Out += '\n';
  };
  AppendRow(Header);
  for (const auto &Row : Rows)
    AppendRow(Row);
  return Out;
}

bool CsvWriter::writeFile(const std::string &Path) const {
  return fcl::writeFile(Path, render());
}

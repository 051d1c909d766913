//===- tests/support_test.cpp - support/ unit tests ------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/Csv.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/SimTime.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace fcl;

namespace {

// --- SimTime ---------------------------------------------------------------

TEST(SimTimeTest, DurationConstructors) {
  EXPECT_EQ(Duration::zero().nanos(), 0);
  EXPECT_EQ(Duration::nanoseconds(7).nanos(), 7);
  EXPECT_EQ(Duration::microseconds(3).nanos(), 3000);
  EXPECT_EQ(Duration::milliseconds(2).nanos(), 2000000);
}

TEST(SimTimeTest, SecondsRoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::seconds(1e-9).nanos(), 1);
  EXPECT_EQ(Duration::seconds(1.4e-9).nanos(), 1);
  EXPECT_EQ(Duration::seconds(1.6e-9).nanos(), 2);
}

TEST(SimTimeTest, SecondsClampsNegativeToZero) {
  EXPECT_EQ(Duration::seconds(-5.0).nanos(), 0);
}

TEST(SimTimeTest, DurationArithmetic) {
  Duration A = Duration::microseconds(2);
  Duration B = Duration::microseconds(3);
  EXPECT_EQ((A + B).nanos(), 5000);
  EXPECT_EQ((B - A).nanos(), 1000);
  EXPECT_EQ((A * 4).nanos(), 8000);
  A += B;
  EXPECT_EQ(A.nanos(), 5000);
}

TEST(SimTimeTest, DurationComparison) {
  EXPECT_LT(Duration::nanoseconds(1), Duration::nanoseconds(2));
  EXPECT_EQ(Duration::nanoseconds(5), Duration::microseconds(0) +
                                          Duration::nanoseconds(5));
}

TEST(SimTimeTest, TimePointArithmetic) {
  TimePoint T0(1000);
  TimePoint T1 = T0 + Duration::nanoseconds(500);
  EXPECT_EQ(T1.nanos(), 1500);
  EXPECT_EQ((T1 - T0).nanos(), 500);
  EXPECT_LT(T0, T1);
}

TEST(SimTimeTest, UnitConversions) {
  Duration D = Duration::milliseconds(1500);
  EXPECT_DOUBLE_EQ(D.toSeconds(), 1.5);
  EXPECT_DOUBLE_EQ(D.toMillis(), 1500.0);
  EXPECT_DOUBLE_EQ(D.toMicros(), 1.5e6);
}

// --- Format ------------------------------------------------------------------

TEST(FormatTest, BasicFormatting) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%.2f", 3.14159), "3.14");
}

TEST(FormatTest, EmptyAndLong) {
  EXPECT_EQ(formatString("%s", ""), "");
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()), Long);
}

TEST(FormatTest, StackBufferBoundary) {
  // formatStringV formats into a 256-byte stack buffer: 255 characters
  // and the terminator fit, and a longer result takes a second pass that
  // must read the same arguments again.
  for (size_t Len : {254u, 255u, 256u, 257u}) {
    std::string Body(Len - 1, 'b');
    EXPECT_EQ(formatString("%s%d", Body.c_str(), 7), Body + "7");
  }
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, NextInRangeRespectsBounds) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextInRange(2.5, 3.5);
    EXPECT_GE(V, 2.5);
    EXPECT_LT(V, 3.5);
  }
}

TEST(RngTest, NextBelowBounded) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

// --- Statistics -------------------------------------------------------------

TEST(StatisticsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0);
}

TEST(StatisticsTest, GeomeanBasics) {
  EXPECT_DOUBLE_EQ(geomean({4, 1}), 2.0);
  EXPECT_NEAR(geomean({1, 10, 100}), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(StatisticsTest, GeomeanOfIdenticalValues) {
  EXPECT_NEAR(geomean({3.7, 3.7, 3.7}), 3.7, 1e-12);
}

TEST(StatisticsTest, StddevBasics) {
  EXPECT_DOUBLE_EQ(stddev({5}), 0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 1e-3);
}

TEST(StatisticsTest, PercentilesAreNearestRank) {
  std::vector<double> P =
      percentiles({7, 1, 9, 3, 5, 2, 10, 4, 8, 6}, {0, 50, 95, 99, 100});
  ASSERT_EQ(P.size(), 5u);
  EXPECT_DOUBLE_EQ(P[0], 1);  // the min
  EXPECT_DOUBLE_EQ(P[1], 5);  // rank ceil(5.0) = 5
  EXPECT_DOUBLE_EQ(P[2], 10); // rank ceil(9.5) = 10
  EXPECT_DOUBLE_EQ(P[3], 10); // rank ceil(9.9) = 10
  EXPECT_DOUBLE_EQ(P[4], 10); // the max
  EXPECT_EQ(percentiles({}, {50}), std::vector<double>{0});
}

TEST(StatisticsTest, AccumulatorTracksMinMaxMean) {
  Accumulator A;
  EXPECT_EQ(A.count(), 0u);
  EXPECT_DOUBLE_EQ(A.mean(), 0);
  A.add(3);
  A.add(1);
  A.add(5);
  EXPECT_EQ(A.count(), 3u);
  EXPECT_DOUBLE_EQ(A.min(), 1);
  EXPECT_DOUBLE_EQ(A.max(), 5);
  EXPECT_DOUBLE_EQ(A.mean(), 3);
  EXPECT_DOUBLE_EQ(A.sum(), 9);
}

// --- Table --------------------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table T({"a", "bb"});
  T.addRow({"xxx", "y"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("a    bb"), std::string::npos);
  EXPECT_NE(Out.find("xxx  y"), std::string::npos);
  EXPECT_EQ(T.numRows(), 1u);
}

TEST(TableTest, HeaderOnlyRenders) {
  Table T({"only"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("only"), std::string::npos);
  EXPECT_NE(Out.find("----"), std::string::npos);
}

// --- Csv --------------------------------------------------------------------

TEST(CsvTest, RendersRows) {
  CsvWriter C({"a", "b"});
  C.addRow({"1", "2"});
  EXPECT_EQ(C.render(), "a,b\n1,2\n");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter C({"x"});
  C.addRow({"has,comma"});
  C.addRow({"has\"quote"});
  std::string Out = C.render();
  EXPECT_NE(Out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(Out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(CsvTest, WriteFileRoundTrip) {
  CsvWriter C({"k", "v"});
  C.addRow({"alpha", "1"});
  std::string Path = ::testing::TempDir() + "/fcl_csv_test.csv";
  ASSERT_TRUE(C.writeFile(Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), "k,v\nalpha,1\n");
  std::remove(Path.c_str());
}

TEST(CsvTest, WriteFileFailsOnBadPath) {
  CsvWriter C({"k"});
  EXPECT_FALSE(C.writeFile("/nonexistent-dir-xyz/file.csv"));
}

TEST(JsonWriterTest, EmptyContainersCloseOnTheirLine) {
  std::string Out;
  JsonWriter W(Out);
  W.object().object("o").end().array("a").end().end();
  EXPECT_EQ(Out, "{\n  \"o\": {},\n  \"a\": []\n}\n");
  std::string Root;
  JsonWriter(Root).array().end();
  EXPECT_EQ(Root, "[]\n");
}

TEST(JsonWriterTest, InlineInsideBlock) {
  std::string Out;
  JsonWriter W(Out);
  W.object().num("n", uint64_t{18446744073709551615u}).num("i", -3);
  W.array("rows");
  W.object(JsonWriter::Inline).num("x", "%.2f", 1.0).boolean("ok", true);
  W.object("in", JsonWriter::Inline).end().end();
  W.object(JsonWriter::Inline).end();
  W.end().end();
  EXPECT_EQ(Out, "{\n"
                 "  \"n\": 18446744073709551615,\n"
                 "  \"i\": -3,\n"
                 "  \"rows\": [\n"
                 "    {\"x\": 1.00, \"ok\": true, \"in\": {}},\n"
                 "    {}\n"
                 "  ]\n"
                 "}\n");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  std::string Out;
  JsonWriter W(Out);
  W.object(JsonWriter::Inline)
      .str("k\"\\", "a\tb\x01\n")
      .array("s", JsonWriter::Inline);
  W.str("\r").end().end();
  EXPECT_EQ(Out, "{\"k\\\"\\\\\": \"a\\tb\\u0001\\n\", \"s\": [\"\\r\"]}\n");
  std::string Escaped;
  appendJsonEscaped(Escaped, "q\"\x1f");
  EXPECT_EQ(Escaped, "q\\\"\\u001f");
}

TEST(JsonWriterTest, FlushEmbedsDocumentsAtColumnZero) {
  std::string Out;
  JsonWriter W(Out);
  W.object().array("runs", JsonWriter::Flush);
  W.object().num("a", 1).end().object().end();
  W.end().end();
  EXPECT_EQ(Out, "{\n  \"runs\": [\n{\n  \"a\": 1\n},\n{}\n  ]\n}\n");
}

TEST(JsonWriterTest, LongFloatsAreNotTruncated) {
  std::string Out;
  JsonWriter(Out).object(JsonWriter::Inline).num("big", "%.6f", 1e80).end();
  EXPECT_EQ(Out, "{\"big\": " + formatString("%.6f", 1e80) + "}\n");
}

// --- ArgParser numeric options ----------------------------------------------

/// Parses "--<Name>=<Value>" against one option with default \p Default.
bool parseOne(ArgParser &P, const std::string &Name, const std::string &Value,
              const std::string &Default) {
  P.addOption(Name, "an option", Default);
  std::string Arg = "--" + Name + "=" + Value;
  const char *Argv[] = {Arg.c_str()};
  return P.parse(1, Argv);
}

TEST(ArgParserValuesTest, NumericOptionRejectsJunkInOneLine) {
  for (const char *Junk : {"xyz", "0.05x", "nan", "inf", "-inf", "1e999", "",
                           " 5", "5 ", "1,5"}) {
    ArgParser P("tool", "test");
    EXPECT_FALSE(parseOne(P, "seed", Junk, "1")) << "'" << Junk << "'";
    EXPECT_EQ(P.error(), formatString("option '--seed' expects a number "
                                      "(got '%s')",
                                      Junk));
    EXPECT_EQ(P.errorText(), "error: " + P.error() + "\n");
  }
  ArgParser P("tool", "test");
  P.addOption("duration", "seconds", "0.25");
  const char *Argv[] = {"--duration", "abc"};
  EXPECT_FALSE(P.parse(2, Argv));
  EXPECT_EQ(P.error(), "option '--duration' expects a number (got 'abc')");
}

TEST(ArgParserValuesTest, NumericOptionTakesEveryNumberSpelling) {
  struct Case {
    const char *Text;
    int64_t I;
    double F;
  };
  for (Case C : {Case{"7", 7, 7.0}, Case{"-3", -3, -3.0},
                 Case{"0.25", 0, 0.25}, Case{"2.5", 2, 2.5},
                 Case{"-2.5", -2, -2.5}, Case{"1e3", 1000, 1000.0},
                 Case{"1e300", INT64_MAX, 1e300},
                 Case{"-1e300", INT64_MIN, -1e300}}) {
    ArgParser P("tool", "test");
    ASSERT_TRUE(parseOne(P, "n", C.Text, "8")) << C.Text;
    EXPECT_EQ(P.i64("n"), C.I) << C.Text;
    EXPECT_DOUBLE_EQ(P.f64("n"), C.F) << C.Text;
  }
}

TEST(ArgParserValuesTest, StringOptionTakesAnyText) {
  for (const char *Default : {"", "paper", "poisson:120"}) {
    ArgParser P("tool", "test");
    ASSERT_TRUE(parseOne(P, "name", "xyz", Default)) << Default;
    EXPECT_EQ(P.str("name"), "xyz");
  }
}

TEST(ArgParserValuesTest, HelpShowsTheDeclaredDefault) {
  ArgParser P("tool", "test");
  ASSERT_TRUE(parseOne(P, "duration", "3", "0.25"));
  EXPECT_DOUBLE_EQ(P.f64("duration"), 3.0);
  std::string Help = P.helpText();
  EXPECT_NE(Help.find("(default: 0.25)"), std::string::npos) << Help;
  EXPECT_EQ(Help.find("(default: 3)"), std::string::npos) << Help;
}

TEST(ArgParserValuesTest, ShapeErrorsStillPrintTheHelp) {
  ArgParser P("tool", "test");
  P.addOption("seed", "a seed", "1");
  const char *Argv[] = {"--bogus"};
  EXPECT_FALSE(P.parse(1, Argv));
  EXPECT_EQ(P.errorText(), "error: " + P.error() + "\n" + P.helpText());
}

TEST(WriteFileTest, WritesBytesAndReportsFailure) {
  std::string Path = ::testing::TempDir() + "/fcl_write_file_test.bin";
  std::string Bytes("a\0b\n", 4);
  ASSERT_TRUE(writeFile(Path, Bytes));
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Bytes);
  std::remove(Path.c_str());
  EXPECT_FALSE(writeFile("/nonexistent-dir-xyz/file.bin", Bytes));
}

} // namespace

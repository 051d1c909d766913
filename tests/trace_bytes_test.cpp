//===- tests/trace_bytes_test.cpp - Pinned Chrome trace bytes -------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Renders a hand-filled tracer and compares every byte with
// tests/golden/trace_full.json, as report_bytes_test does for reports. The
// tracer covers what the renderer formats: lanes whose first appearances
// interleave (tid order), a quote, a backslash, a tab, a newline and a
// 0x01 byte in every kind of name, empty and non-empty details,
// zero-length slices, timestamps on both sides of the millisecond digit
// boundaries and of 2^52 ns, negative starts, counter values that print
// in %g's fixed and exponent forms, a prefixed merge and the profile
// annotation.
//
//===----------------------------------------------------------------------===//

#include "trace/Tracer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace fcl;
using namespace fcl::trace;

namespace {

const char *const Odd = "q\"b\\t\tn\nc\x01.";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// One slice per start/duration pair of 0, 1, 999, 1000 and 1001 ns.
void fillTimes(Tracer &T, const std::string &Lane) {
  const int64_t Ns[] = {0, 1, 999, 1000, 1001};
  for (int64_t Start : Ns)
    for (int64_t Dur : Ns)
      T.record(Lane, "t", TimePoint(Start), TimePoint(Start + Dur),
               Dur == 0 ? "" : "dur");
}

Tracer fullTracer() {
  const int64_t P52 = int64_t(1) << 52;
  Tracer T;
  // Lanes first appear as A, B, odd, C, interleaved with repeats.
  T.record("A", "a0", TimePoint(0), TimePoint(10), "first");
  T.record("B", "b0", TimePoint(5), TimePoint(5));
  T.record("A", "a1", TimePoint(10), TimePoint(20));
  T.record(std::string("lane ") + Odd, std::string("name ") + Odd,
           TimePoint(20), TimePoint(1020), std::string("detail ") + Odd);
  T.record("B", "b1", TimePoint(30), TimePoint(31), "x");
  T.record("C", "", TimePoint(40), TimePoint(40), "");
  fillTimes(T, "C");
  // Around 2^52 ns the renderer must keep %.3f's bytes.
  T.record("D", "p52-1001", TimePoint(P52 - 1001), TimePoint(P52 - 1));
  T.record("D", "p52", TimePoint(P52 - 1), TimePoint(P52 + 1001));
  T.record("D", "p52+", TimePoint(P52 + 999), TimePoint(3 * P52 + 7));
  T.record("D", "neg", TimePoint(-1001), TimePoint(-1));
  T.record("D", "neg0", TimePoint(-999), TimePoint(0));

  const double Values[] = {0,    -0.0, 3,        0.1,  1.0 / 3.0,
                           1e-7, 123456.5, 1e21, -2.5};
  int64_t At = 0;
  for (double V : Values) {
    T.counter("values", TimePoint(At), V);
    At += 999;
  }
  T.counter(std::string("track ") + Odd, TimePoint(1001), 1);
  T.counter("values", TimePoint(P52 + 1), 7);

  Tracer W;
  W.record("GPU", "k", TimePoint(0), TimePoint(5), "d");
  W.record("A", "wa", TimePoint(1), TimePoint(2));
  W.record("GPU", "k2", TimePoint(5), TimePoint(6));
  W.counter("load", TimePoint(2), 3.5);
  W.counter("values", TimePoint(3), -1);
  T.mergeFrom(W, "w0 ");
  T.record("A", "after merge", TimePoint(50), TimePoint(60));

  prof::Snapshot S;
  prof::PhaseStats P;
  P.Path = "sim.run";
  P.Name = "sim.run";
  P.ExclusiveNs = 1234567;
  S.Phases.push_back(P);
  P.Path = "sim.run/trace.record";
  P.Name = "trace.record";
  P.Depth = 1;
  P.ExclusiveNs = 1;
  S.Phases.push_back(P);
  S.Counters["trace.records"] = 42;
  S.Counters[std::string("odd ") + Odd] = 0;
  T.annotateProfile(S);
  return T;
}

TEST(TraceBytesTest, FullTraceMatchesGolden) {
  std::string Path = std::string(FCL_GOLDEN_DIR) + "/trace_full.json";
  std::string Expected = readFile(Path);
  ASSERT_FALSE(Expected.empty()) << "missing golden file " << Path;
  EXPECT_EQ(Expected, fullTracer().renderChromeTrace())
      << "bytes differ from " << Path;
}

TEST(TraceBytesTest, EmptyTracer) {
  EXPECT_EQ(Tracer().renderChromeTrace(), "{\"traceEvents\":[\n\n]}\n");
}

} // namespace

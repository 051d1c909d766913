//===- tests/trace_test.cpp - Execution tracer tests -----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Tracer.h"

#include "fluidicl/Runtime.h"
#include "mcl/CommandQueue.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace fcl;
using namespace fcl::trace;

namespace {

TEST(TracerTest, RecordsSlices) {
  Tracer T;
  T.record("lane", "ev", TimePoint(100), TimePoint(300), "d");
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T.events()[0].Lane, "lane");
  EXPECT_EQ(T.events()[0].Name, "ev");
  EXPECT_EQ(T.events()[0].duration().nanos(), 200);
}

TEST(TracerTest, LaneBusyAndFilter) {
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(10));
  T.record("b", "y", TimePoint(0), TimePoint(100));
  T.record("a", "z", TimePoint(20), TimePoint(25));
  EXPECT_EQ(T.laneBusy("a").nanos(), 15);
  EXPECT_EQ(T.laneBusy("b").nanos(), 100);
  EXPECT_EQ(T.laneBusy("missing").nanos(), 0);
  EXPECT_EQ(T.laneEvents("a").size(), 2u);
}

TEST(TracerTest, ClearEmpties) {
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(1));
  T.clear();
  EXPECT_EQ(T.size(), 0u);
}

TEST(TracerTest, ClearRestartsTidsAtFirstAppearance) {
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(1));
  T.clear();
  T.record("b", "y", TimePoint(0), TimePoint(1));
  T.record("a", "z", TimePoint(0), TimePoint(1));
  EXPECT_EQ(T.lanes(), (std::vector<std::string>{"b", "a"}));
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"b\"}"),
            std::string::npos);
  EXPECT_NE(Json.find("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"a\"}"),
            std::string::npos);
}

TEST(TracerTest, SliceTextMayViewALaneName) {
  // Each new lane grows the lane table, moving a short lane name's inline
  // characters; a name or detail viewing them must be copied first (the
  // sanitizer build turns a late copy into a use-after-free).
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(1));
  for (int I = 0; I < 40; ++I)
    T.record("lane" + std::to_string(I), T.lanes()[0], TimePoint(0),
             TimePoint(1), T.lanes()[0]);
  std::vector<TraceEvent> E = T.laneEvents("lane39");
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Name, "a");
  EXPECT_EQ(E[0].Detail, "a");
}

TEST(TracerDeathTest, RejectsBackwardsSlice) {
  Tracer T;
  EXPECT_DEATH(T.record("a", "x", TimePoint(10), TimePoint(5)), "ends");
}

TEST(TracerTest, MergeFromEmptySourceIsANoOp) {
  Tracer Dst, Src;
  Dst.record("a", "x", TimePoint(0), TimePoint(1));
  Dst.mergeFrom(Src, "w0/");
  ASSERT_EQ(Dst.size(), 1u);
  EXPECT_EQ(Dst.events()[0].Lane, "a");
  EXPECT_TRUE(Dst.trackSamples("w0/t").empty());
}

TEST(TracerTest, MergeFromPrefixesLanesAndTracks) {
  Tracer Dst, Src;
  Src.record("GPU", "k", TimePoint(0), TimePoint(5), "d");
  Src.counter("load", TimePoint(2), 3.5);
  Dst.mergeFrom(Src, "w1/");
  ASSERT_EQ(Dst.laneEvents("w1/GPU").size(), 1u);
  EXPECT_EQ(Dst.laneEvents("w1/GPU")[0].Detail, "d");
  ASSERT_EQ(Dst.trackSamples("w1/load").size(), 1u);
  EXPECT_DOUBLE_EQ(Dst.trackSamples("w1/load")[0].Value, 3.5);
  // Merging again under the same prefix appends rather than replacing -
  // duplicate lane names stay one lane with more events.
  Dst.mergeFrom(Src, "w1/");
  EXPECT_EQ(Dst.laneEvents("w1/GPU").size(), 2u);
  EXPECT_EQ(Dst.trackSamples("w1/load").size(), 2u);
}

TEST(TracerDeathTest, MergeIntoSelfIsRejected) {
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(1));
  EXPECT_DEATH(T.mergeFrom(T, "w0/"), "itself");
}

TEST(TracerTest, ChromeTraceContainsLanesAndEvents) {
  Tracer T;
  T.record("GPU", "kernel", TimePoint(1000), TimePoint(3000), "q=app");
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("thread_name"), std::string::npos);
  EXPECT_NE(Json.find("\"GPU\""), std::string::npos);
  EXPECT_NE(Json.find("\"kernel\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":2.000"), std::string::npos);
}

TEST(TracerTest, EscapesJsonSpecials) {
  Tracer T;
  T.record("la\"ne", "na\\me", TimePoint(0), TimePoint(1));
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("la\\\"ne"), std::string::npos);
  EXPECT_NE(Json.find("na\\\\me"), std::string::npos);
}

TEST(TracerTest, EscapesControlCharsAndHostileNames) {
  Tracer T;
  // A kernel name with every class of hostile character: quote, backslash,
  // newline, tab, and an embedded control byte.
  T.record("lane\none", "ker\"nel\\\t\x01", TimePoint(0), TimePoint(1),
           "d=\"x\"");
  T.counter("cnt\"track", TimePoint(0), 1.0);
  std::string Json = T.renderChromeTrace();
  // No raw tab or control byte may survive into the output (newlines are
  // legitimate inter-event formatting, so check the escaped forms instead).
  EXPECT_EQ(Json.find('\t'), std::string::npos);
  EXPECT_EQ(Json.find('\x01'), std::string::npos);
  EXPECT_NE(Json.find("lane\\none"), std::string::npos);
  EXPECT_NE(Json.find("ker\\\"nel\\\\\\t\\u0001"), std::string::npos);
  EXPECT_NE(Json.find("cnt\\\"track"), std::string::npos);
}

TEST(TracerTest, CounterSamplesRecordedAndFiltered) {
  Tracer T;
  T.counter("chunk", TimePoint(0), 2.0);
  T.counter("transfers", TimePoint(50), 1.0);
  T.counter("chunk", TimePoint(100), 4.0);
  ASSERT_EQ(T.counterSamples().size(), 3u);
  auto Chunk = T.trackSamples("chunk");
  ASSERT_EQ(Chunk.size(), 2u);
  EXPECT_EQ(Chunk[0].Value, 2.0);
  EXPECT_EQ(Chunk[1].Value, 4.0);
  EXPECT_TRUE(T.trackSamples("missing").empty());
  T.clear();
  EXPECT_TRUE(T.counterSamples().empty());
}

TEST(TracerTest, ChromeTraceEmitsCounterEvents) {
  Tracer T;
  T.record("GPU", "kernel", TimePoint(0), TimePoint(1000));
  T.counter("Outstanding transfers", TimePoint(500), 3.0);
  std::string Json = T.renderChromeTrace();
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"Outstanding transfers\""), std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"value\":3}"), std::string::npos);
}

TEST(TracerIntegrationTest, FluidiclRunEmitsCounterTracks) {
  Tracer T;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Ctx.setTracer(&T);
  fluidicl::Runtime RT(Ctx);
  work::runWorkload(RT, work::makeSyrk(1024, 1024), false);
  EXPECT_FALSE(T.trackSamples("SimGPU live work-groups").empty());
  EXPECT_FALSE(T.trackSamples("Outstanding transfers").empty());
  EXPECT_FALSE(T.trackSamples("CPU chunk work-groups").empty());
  // Transfer tracking must balance: the final sample returns to zero.
  EXPECT_EQ(T.trackSamples("Outstanding transfers").back().Value, 0.0);
}

TEST(TracerTest, WriteFileRoundTrip) {
  Tracer T;
  T.record("a", "x", TimePoint(0), TimePoint(1));
  std::string Path = ::testing::TempDir() + "/fcl_trace_test.json";
  ASSERT_TRUE(T.writeChromeTrace(Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), T.renderChromeTrace());
  std::remove(Path.c_str());
}

TEST(TracerIntegrationTest, QueueCommandsProduceSlices) {
  Tracer T;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Ctx.setTracer(&T);
  auto Queue = Ctx.createQueue(Ctx.gpu(), "q");
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 4096);
  Queue->enqueueWrite(*Buf, nullptr, 4096);
  Queue->enqueueRead(*Buf, nullptr, 4096);
  Queue->finish();
  EXPECT_EQ(T.laneEvents("PCIe H2D").size(), 1u);
  EXPECT_EQ(T.laneEvents("PCIe D2H").size(), 1u);
  // The slice durations match the PCIe model.
  EXPECT_EQ(T.laneEvents("PCIe H2D")[0].duration().nanos(),
            Ctx.machine().Pcie.transferTime(4096).nanos());
}

TEST(TracerIntegrationTest, FluidiclScheduleVisibleOnAllLanes) {
  Tracer T;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Ctx.setTracer(&T);
  fluidicl::Runtime RT(Ctx);
  work::runWorkload(RT, work::makeSyrk(1024, 1024), false);
  // GPU kernel + merge, CPU subkernels, data/status stream, DH readback.
  EXPECT_GE(T.laneEvents("SimGPU").size(), 2u);
  EXPECT_GE(T.laneEvents("SimCPU").size(), 3u);
  EXPECT_GE(T.laneEvents("PCIe H2D").size(), 3u);
  EXPECT_GE(T.laneEvents("PCIe D2H").size(), 1u);
  EXPECT_GE(T.laneEvents("SimGPU copy").size(), 1u); // Orig snapshot.
  // Subkernel slices carry the flat-range suffix.
  bool SawSubkernel = false;
  for (const TraceEvent &E : T.laneEvents("SimCPU"))
    if (E.Name.find('[') != std::string::npos)
      SawSubkernel = true;
  EXPECT_TRUE(SawSubkernel);
}

TEST(TracerIntegrationTest, DetachStopsRecording) {
  Tracer T;
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  Ctx.setTracer(&T);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  auto Buf = Ctx.createBuffer(Ctx.gpu(), 64);
  Queue->enqueueWrite(*Buf, nullptr, 64);
  Queue->finish();
  size_t Before = T.size();
  Ctx.setTracer(nullptr);
  Queue->enqueueWrite(*Buf, nullptr, 64);
  Queue->finish();
  EXPECT_EQ(T.size(), Before);
}

} // namespace

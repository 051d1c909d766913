//===- perfbench/src/SpanLog.cpp - In-memory host-time spans --------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "SpanLog.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

using namespace perfbench;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

double perfbench::hostSeconds() { return static_cast<double>(nowNs()) * 1e-9; }

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::map<int, double> SpanLog::secondsByRun(const char *Name) const {
  std::map<int, double> Out;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Out[S.Run] += static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"workload\":\"" << Workload
        << "\",\"run\":" << S.Run << "}\n";
  }
  return static_cast<bool>(Out);
}

SpanLog::Scope::Scope(SpanLog &L, const char *Name) {
  if (!L.Enabled)
    return;
  Log = &L;
  Idx = static_cast<int>(L.Spans.size());
  L.Spans.push_back({Name, nowNs(), 0, L.Open, L.CurRun});
  L.Open = Idx;
}

SpanLog::Scope::~Scope() {
  if (!Log)
    return;
  Span &S = Log->Spans[Idx];
  S.EndNs = nowNs();
  Log->Open = S.Parent;
}

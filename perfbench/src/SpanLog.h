//===- perfbench/src/SpanLog.h - In-memory host-time spans ------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: one span per public call the benchmark
/// makes into a library layer (serve::Engine::run, fluidicl::Runtime::
/// launchKernel, trace::Tracer::renderChromeTrace, ...). A span records its
/// name, host start and end, the span that enclosed it, the workload and
/// the run id. Spans stay in memory and are written out once, at exit.
///
/// Recording is off in the untraced mode, where the end-to-end metrics are
/// measured; a disabled scope costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_PERFBENCH_SPANLOG_H
#define FCL_PERFBENCH_SPANLOG_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock in seconds.
double hostSeconds();

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the enclosing span in the log; -1 for a run's root.
  int Parent = -1;
  int Run = 0;
};

class SpanLog {
public:
  explicit SpanLog(std::string Workload) : Workload(std::move(Workload)) {}

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Starts run \p Run; later spans carry its id.
  void setRun(int Run) { CurRun = Run; }

  /// Summed duration of the spans named \p Name, seconds, per run id.
  std::map<int, double> secondsByRun(const char *Name) const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

  /// RAII span; records nothing while the log is disabled.
  class Scope {
  public:
    Scope(SpanLog &L, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *Log = nullptr;
    int Idx = -1;
  };

private:
  std::string Workload;
  bool Enabled = false;
  int CurRun = 0;
  int Open = -1;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // FCL_PERFBENCH_SPANLOG_H

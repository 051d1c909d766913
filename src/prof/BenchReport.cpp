//===- prof/BenchReport.cpp - Host benchmark reports ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "prof/BenchReport.h"

#include "support/Format.h"
#include "support/Json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace fcl;
using namespace fcl::prof;

uint64_t fcl::prof::peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(Usage.ru_maxrss); // Bytes on macOS.
#else
  return static_cast<uint64_t>(Usage.ru_maxrss) * 1024; // KiB on Linux.
#endif
#else
  return 0;
#endif
}

void BenchReport::attachProfile(const Snapshot &S, size_t N) {
  Profile = S.topByExclusive(N);
  Counters = S.Counters;
}

std::string BenchReport::toJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.object()
      .str("schema", "fcl-bench-report-v1")
      .str("name", Name)
      .str("suite", Suite)
      .object("meta");
  for (const auto &[K, V] : Meta)
    W.str(K, V);
  W.end().object("metrics");
  for (const auto &[K, V] : Metrics)
    W.num(K, "%.9g", V);
  W.end().num("peak_rss_bytes", PeakRss).array("profile");
  for (const PhaseStats &P : Profile)
    W.object(JsonWriter::Inline)
        .str("path", P.Path)
        .num("count", P.Count)
        .num("inclusive_ms", "%.6f", P.inclusiveMs())
        .num("exclusive_ms", "%.6f", P.exclusiveMs())
        .end();
  W.end().object("counters");
  for (const auto &[K, V] : Counters)
    W.num(K, V);
  W.end().end();
  return Out;
}

bool BenchReport::write(const std::string &Path) const {
  return writeFile(Path, toJson());
}

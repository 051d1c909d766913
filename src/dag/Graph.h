//===- dag/Graph.h - Kernel-launch dependence graphs ------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compound serve job as a small kernel DAG: nodes are the workload's
/// kernel launches with their declared buffer read/write sets (derived from
/// the registry's per-argument ArgAccess metadata - the same "simple
/// compiler analysis" information FluidiCL uses for duplication/merge), and
/// edges are data dependences computed by per-buffer last-writer
/// versioning (RAW, WAW and WAR all order; read-read does not).
///
/// Soldado et al. (see PAPERS.md) schedule whole multi-kernel computations
/// instead of single launches; dag::Graph is the unit their scheduler - and
/// our dag::DagJobExec - operates on. Construction is deterministic and
/// pure: the same workload always yields the same graph.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_DAG_GRAPH_H
#define FCL_DAG_GRAPH_H

#include "work/Workload.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fcl {
namespace dag {

/// One kernel launch inside a compound job.
struct Node {
  /// Index into Workload::Calls; Graph::node(Index) is this node.
  size_t Index = 0;
  /// Kernel name (copied out of the call for cheap access in traces).
  std::string Kernel;
  /// Workload buffer indices this launch reads (In / InOut args, deduped,
  /// in first-appearance order).
  std::vector<size_t> Reads;
  /// Workload buffer indices this launch writes (Out / InOut args).
  std::vector<size_t> Writes;
  /// Predecessor node indices (sorted, deduped): every RAW/WAW/WAR
  /// dependence on an earlier launch.
  std::vector<size_t> Deps;
  /// Successor node indices (sorted, deduped).
  std::vector<size_t> Succs;
  /// Flattened work-group count of the launch (cost/size proxy).
  uint64_t Groups = 0;
};

/// The dependence graph of one workload's kernel launches.
class Graph {
public:
  /// Derives the graph from \p W using kern::Registry::builtin() argument
  /// metadata. Aborts (FCL_CHECK) if a call's argument count disagrees
  /// with its registered kernel.
  static Graph fromWorkload(const work::Workload &W);

  size_t size() const { return Nodes.size(); }
  const Node &node(size_t I) const { return Nodes[I]; }

  /// Total dependence edges.
  size_t numEdges() const;
  /// Nodes with no predecessors, in index order.
  std::vector<size_t> roots() const;
  /// Widest antichain a level-by-level (ASAP) schedule exposes: 1 for a
  /// pure chain, k for a k-way fan-out. Used by tests and --dag-stats.
  size_t maxParallelism() const;
  /// "chain", "fan-out", "fan-in", "dag" or "single" - a coarse shape
  /// label for docs/traces.
  const char *shapeName() const;

private:
  std::vector<Node> Nodes;
};

} // namespace dag
} // namespace fcl

#endif // FCL_DAG_GRAPH_H

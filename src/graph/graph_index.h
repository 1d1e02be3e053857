// Copyright 2026 The balanced-clique Authors.
//
// GraphIndex: the derived structures of one immutable SignedGraph that
// depend on the graph alone, never on τ — the polar-core numbers of the
// polarization decomposition (Algorithm 5) and the degeneracy order that
// MBC-Heu (Algorithm 3) takes its anchors from. Both are per-graph
// preprocessing, not per-query work, so the index computes each part
// once per graph and every solver call on the graph reads it.
//
// Each part is computed lazily, at most once, on first use (std::call_once,
// so concurrent first calls compute it once and all see the same values).
// Nothing is computed at load. Copies of a graph share its index; a graph
// built by SignedGraphBuilder, InducedSubgraph or the CSR factories (the
// paths of EdgeReduction's rounds and of a mutation batch's new head)
// starts with an empty one. ApplyVertexReduction seeds the polar part of
// the reduced graph it returns (src/core/reductions.h).
//
// Cost: PDecompose and DegeneracyDecompose, O(n + m) each, once per graph;
// kept are pn (4 bytes per vertex) and the order (4 bytes per vertex).
#ifndef MBC_GRAPH_GRAPH_INDEX_H_
#define MBC_GRAPH_GRAPH_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/types.h"

namespace mbc {

class SignedGraph;

/// Polar-core numbers pn(v) (src/pf/pdecompose.h) and their maximum.
struct PolarCoreNumbers {
  std::vector<uint32_t> pn;
  uint32_t max = 0;
};

/// The index of one SignedGraph, reached through SignedGraph::Index().
/// Every accessor takes the graph the index belongs to.
class GraphIndex {
 public:
  GraphIndex() = default;
  GraphIndex(const GraphIndex&) = delete;
  GraphIndex& operator=(const GraphIndex&) = delete;

  /// pn of every vertex of `graph`, as PDecompose computes it.
  const PolarCoreNumbers& Polar(const SignedGraph& graph);

  /// The degeneracy (smallest-first peeling) order of `graph`, as
  /// DegeneracyDecompose computes it.
  const std::vector<VertexId>& DegeneracyOrder(const SignedGraph& graph);

  /// Installs polar-core numbers computed elsewhere, unless the polar
  /// part is already built. The caller vouches that they are the graph's
  /// (ApplyVertexReduction restricts its input's pn to the polar core).
  void SeedPolar(PolarCoreNumbers polar);

  /// Heap bytes of the parts built so far; 0 before first use.
  size_t MemoryBytes() const {
    return memory_bytes_.load(std::memory_order_acquire);
  }

 private:
  std::once_flag polar_once_;
  PolarCoreNumbers polar_;
  std::once_flag order_once_;
  std::vector<VertexId> order_;
  std::atomic<size_t> memory_bytes_{0};
};

}  // namespace mbc

#endif  // MBC_GRAPH_GRAPH_INDEX_H_

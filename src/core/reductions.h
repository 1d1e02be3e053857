// Copyright 2026 The balanced-clique Authors.
//
// Graph reductions of Chen et al. [13], used by the baseline MBC (both) and
// by MBC* (VertexReduction only — EdgeReduction's O(m^1.5) cost outweighs
// its benefit for the fast algorithm, as the paper's Figure 6 shows).
#ifndef MBC_CORE_REDUCTIONS_H_
#define MBC_CORE_REDUCTIONS_H_

#include <cstdint>
#include <vector>

#include "src/common/execution.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// VertexReduction [13]: every vertex of a balanced clique satisfying the
/// polarization constraint τ has positive degree ≥ τ-1 and negative degree
/// ≥ τ. Iteratively removes violating vertices (cascading) and returns the
/// alive mask: the τ-polar core, peeled by PolarCoreMask
/// (src/pf/pdecompose.h). O(n + m). For τ == 0 all vertices survive. The
/// peel that EdgeReduction's rounds run and the reference
/// ApplyVertexReduction is tested against.
std::vector<uint8_t> VertexReductionMask(const SignedGraph& graph,
                                         uint32_t tau);

/// EdgeReduction [13]: an edge of a balanced clique satisfying τ must
/// participate in a minimum number of signed triangles:
///   * a positive edge (u,v) needs ≥ τ-2 common neighbors w with
///     (u,w), (v,w) both positive, and ≥ τ with both negative;
///   * a negative edge (u,v) needs ≥ τ-1 common neighbors w with
///     (u,w) positive, (v,w) negative, and ≥ τ-1 with the opposite pattern.
/// Removes violating edges (and then degree-violating vertices) to a
/// fixpoint. Returns a graph over the same vertex ids with the surviving
/// edges; removed vertices simply become isolated. O(rounds · α·m).
///
/// `exec`: optional execution governor; on an interrupt, the result of the
/// last *completed* round is returned (every removal is individually
/// sound, so a partial reduction is still a valid one).
SignedGraph EdgeReduction(const SignedGraph& graph, uint32_t tau,
                          ExecutionContext* exec = nullptr);

/// Applies VertexReduction and materializes the reduced graph.
struct ReducedSignedGraph {
  SignedGraph graph;
  /// Maps reduced vertex ids back to the input graph's ids.
  std::vector<VertexId> to_original;
};

/// The vertices VertexReductionMask keeps satisfy min{d+ + 1, d-} ≥ τ, so
/// the reduced graph R_τ is the input's τ-polar core: the vertices with
/// pn ≥ τ. It is read from the input's index (src/graph/graph_index.h)
/// by an O(n) scan plus InducedSubgraph's O(n + kept degrees), not peeled;
/// the first call on a graph pays its PDecompose, O(n + m), once. R_τ's
/// own index starts with its polar part seeded: every k-polar core with
/// k ≥ τ lies inside R_τ, so pn over R_τ is the input's pn restricted to
/// it, and MbcHeuristic on R_τ runs no PDecompose. When every vertex has
/// pn ≥ τ (always at τ = 0), R_τ is a copy of the input with the identity
/// map: it shares the input's index, and a mapped input copies in O(1).
ReducedSignedGraph ApplyVertexReduction(const SignedGraph& graph,
                                        uint32_t tau);

/// Reduces `reduced.graph` to its k-core (signs ignored, KCoreMask) and
/// renumbers it. The result's to_original maps the core's ids straight to
/// the ids of the graph `reduced` was reduced from. O(n + m).
ReducedSignedGraph ApplyCoreReduction(const ReducedSignedGraph& reduced,
                                      uint32_t k);

}  // namespace mbc

#endif  // MBC_CORE_REDUCTIONS_H_

// Copyright 2026 The balanced-clique Authors.
#include "src/core/reductions.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/graph/cores.h"
#include "src/graph/graph_index.h"
#include "src/graph/signed_graph_builder.h"
#include "src/graph/triangles.h"
#include "src/pf/pdecompose.h"

namespace mbc {

std::vector<uint8_t> VertexReductionMask(const SignedGraph& graph,
                                         uint32_t tau) {
  // d+ ≥ τ-1 and d- ≥ τ is min{d+ + 1, d-} ≥ τ: the τ-polar core.
  return PolarCoreMask(graph, tau);
}

namespace {

/// The subgraph induced by the alive vertices, renumbered in ascending id
/// order (so InducedSubgraph needs no row sort).
ReducedSignedGraph InduceAlive(const SignedGraph& graph,
                               const std::vector<uint8_t>& alive) {
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult induced = graph.InducedSubgraph(keep);
  return ReducedSignedGraph{std::move(induced.graph),
                            std::move(induced.to_original)};
}

}  // namespace

ReducedSignedGraph ApplyVertexReduction(const SignedGraph& graph,
                                        uint32_t tau) {
  // R_τ is the τ-polar core, and its pn the input's restricted to it
  // (see the header).
  const PolarCoreNumbers& polar = graph.Index().Polar(graph);
  const size_t kept = static_cast<size_t>(std::count_if(
      polar.pn.begin(), polar.pn.end(),
      [tau](uint32_t pn) { return pn >= tau; }));
  if (kept == graph.NumVertices()) {
    // Nothing to drop (always so at τ = 0): a copy of the input, which
    // shares its index and, for a mapped graph, its mapping.
    std::vector<VertexId> identity(kept);
    std::iota(identity.begin(), identity.end(), VertexId{0});
    return ReducedSignedGraph{graph, std::move(identity)};
  }
  std::vector<VertexId> keep;
  keep.reserve(kept);
  PolarCoreNumbers seeded;
  seeded.pn.reserve(kept);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (polar.pn[v] >= tau) {
      keep.push_back(v);
      seeded.pn.push_back(polar.pn[v]);
    }
  }
  if (!keep.empty()) seeded.max = polar.max;
  SignedGraph::InducedResult induced = graph.InducedSubgraph(keep);
  induced.graph.Index().SeedPolar(std::move(seeded));
  return ReducedSignedGraph{std::move(induced.graph),
                            std::move(induced.to_original)};
}

ReducedSignedGraph ApplyCoreReduction(const ReducedSignedGraph& reduced,
                                      uint32_t k) {
  ReducedSignedGraph cored =
      InduceAlive(reduced.graph, KCoreMask(reduced.graph, k));
  for (VertexId& v : cored.to_original) v = reduced.to_original[v];
  return cored;
}

SignedGraph EdgeReduction(const SignedGraph& graph, uint32_t tau,
                          ExecutionContext* exec) {
  if (tau < 2) {
    // For τ ≤ 1 the triangle conditions are vacuous for positive edges and
    // (for τ == 1) require nothing beyond edge existence for negative ones.
    return graph;
  }
  const uint32_t pos_need_pp = tau - 2;
  const uint32_t pos_need_nn = tau;
  const uint32_t neg_need_mixed = tau - 1;

  SignedGraph current = graph;
  bool aborted = exec != nullptr && exec->Probe();
  while (!aborted) {
    SignedGraphBuilder builder(current.NumVertices());
    uint64_t removed = 0;
    auto classify = [&](VertexId u, VertexId v, Sign sign) {
      if (exec != nullptr && exec->Checkpoint()) aborted = true;
      if (aborted) return;  // partial round is discarded below
      const EdgeTriangleCounts counts = CountEdgeTriangles(current, u, v);
      bool keep = true;
      if (sign == Sign::kPositive) {
        keep = counts.pos_pos >= pos_need_pp && counts.neg_neg >= pos_need_nn;
      } else {
        keep =
            counts.pos_neg >= neg_need_mixed && counts.neg_pos >= neg_need_mixed;
      }
      if (keep) {
        builder.AddEdge(u, v, sign);
      } else {
        ++removed;
      }
    };
    current.ForEachEdge(classify);
    if (aborted || removed == 0) break;
    SignedGraph next = std::move(builder).Build();
    // Removing edges can invalidate the degree conditions; clear the
    // adjacency of degree-violating vertices so their edges are retried.
    const std::vector<uint8_t> alive = VertexReductionMask(next, tau);
    SignedGraphBuilder filtered(next.NumVertices());
    next.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
      if (alive[u] && alive[v]) filtered.AddEdge(u, v, sign);
    });
    current = std::move(filtered).Build();
  }
  return current;
}

}  // namespace mbc

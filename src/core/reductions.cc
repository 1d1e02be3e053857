// Copyright 2026 The balanced-clique Authors.
#include "src/core/reductions.h"

#include <utility>

#include "src/common/logging.h"
#include "src/graph/cores.h"
#include "src/graph/signed_graph_builder.h"
#include "src/graph/triangles.h"

namespace mbc {

std::vector<uint8_t> VertexReductionMask(const SignedGraph& graph,
                                         uint32_t tau) {
  const VertexId n = graph.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  if (tau == 0) return alive;
  const uint32_t need_pos = tau - 1;
  const uint32_t need_neg = tau;

  std::vector<uint32_t> pos_degree(n);
  std::vector<uint32_t> neg_degree(n);
  std::vector<VertexId> pending;
  for (VertexId v = 0; v < n; ++v) {
    pos_degree[v] = graph.PositiveDegree(v);
    neg_degree[v] = graph.NegativeDegree(v);
    if (pos_degree[v] < need_pos || neg_degree[v] < need_neg) {
      alive[v] = 0;
      pending.push_back(v);
    }
  }
  while (!pending.empty()) {
    const VertexId v = pending.back();
    pending.pop_back();
    for (VertexId u : graph.PositiveNeighbors(v)) {
      if (alive[u] && --pos_degree[u] < need_pos) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
    for (VertexId u : graph.NegativeNeighbors(v)) {
      if (alive[u] && --neg_degree[u] < need_neg) {
        alive[u] = 0;
        pending.push_back(u);
      }
    }
  }
  return alive;
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
  return InduceAlive(graph, VertexReductionMask(graph, tau));
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

// Copyright 2026 The balanced-clique Authors.
#include "src/service/degraded.h"

#include <algorithm>
#include <vector>

#include "src/core/mbc_heu.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

constexpr size_t kNumAnchors = 4;

/// The last vertices of the peeling order live in the densest region of
/// the graph (highest core numbers) — the natural anchor pool for a
/// greedy that wants a large dichromatic neighborhood to grow in.
std::vector<VertexId> DenseAnchors(const SignedGraph& graph) {
  const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
  std::vector<VertexId> anchors;
  const size_t n = degeneracy.order.size();
  const size_t take = std::min(kNumAnchors, n);
  anchors.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    anchors.push_back(degeneracy.order[n - 1 - i]);
  }
  return anchors;
}

}  // namespace

QueryResult ComputeDegradedResult(const SignedGraph& graph, QueryKind kind,
                                  uint32_t tau) {
  QueryResult result;
  if (graph.NumVertices() == 0) return result;

  if (kind == QueryKind::kMbc || kind == QueryKind::kMbcHeu ||
      kind == QueryKind::kMbcTol) {
    // The promoted heuristic tier with local search off: exactly the
    // historical brownout sweep (the five degree/polar anchors plus the
    // degeneracy tail), O(m) per anchor. A balanced clique frustrates no
    // edge, so the same lower bound serves the tolerant kind for any
    // budget (result.frustrated stays 0).
    MbcHeuOptions options;
    options.local_search_iterations = 0;
    options.degeneracy_anchors = kNumAnchors;
    result.clique = MbcHeuristicSearch(graph, tau, options).clique;
    return result;
  }

  // PF / gMBC. The anchored greedy does not depend on tau (tau only
  // filters its result), so each anchor runs once and every tau below
  // reads the same pool: the five degree/polar anchors of MbcHeuristic,
  // then the dense tail of the degeneracy order.
  std::vector<BalancedClique> pool;
  for (const VertexId anchor : DegreeAndPolarAnchors(graph)) {
    pool.push_back(MbcHeuristicAt(graph, anchor, /*tau=*/0));
  }
  for (const VertexId anchor : DenseAnchors(graph)) {
    pool.push_back(MbcHeuristicAt(graph, anchor, /*tau=*/0));
  }

  // Every pooled clique with min side s certifies beta(G) >= s (the same
  // certificate PF* seeds its binary search with); keep the largest.
  size_t widest_min = 0;
  for (const BalancedClique& clique : pool) {
    widest_min = std::max(widest_min, clique.MinSide());
  }
  result.beta = static_cast<uint32_t>(widest_min);
  if (kind == QueryKind::kPf) return result;

  // kGmbc: per tau in [0, beta], the largest pooled clique whose min side
  // reaches tau. The candidate set shrinks as tau grows, so the sizes are
  // non-increasing, as exact gMBC sizes are.
  result.gmbc_sizes.assign(result.beta + 1, 0);
  for (uint32_t t = 0; t <= result.beta; ++t) {
    for (const BalancedClique& clique : pool) {
      if (clique.MinSide() >= t) {
        result.gmbc_sizes[t] = std::max(
            result.gmbc_sizes[t], static_cast<uint32_t>(clique.size()));
      }
    }
  }
  return result;
}

}  // namespace mbc

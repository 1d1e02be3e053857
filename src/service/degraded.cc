// Copyright 2026 The balanced-clique Authors.
#include "src/service/degraded.h"

#include <algorithm>
#include <vector>

#include "src/core/mbc_heu.h"

namespace mbc {

QueryResult ComputeDegradedResult(const SignedGraph& graph, QueryKind kind,
                                  uint32_t tau) {
  QueryResult result;
  if (graph.NumVertices() == 0) return result;

  // The heuristic tier with local search off: the five degree/polar
  // anchors plus the degeneracy tail, one O(m) greedy each.
  MbcHeuOptions options;
  options.local_search_iterations = 0;

  if (kind == QueryKind::kMbc || kind == QueryKind::kMbcHeu ||
      kind == QueryKind::kMbcTol) {
    // A balanced clique frustrates no edge, so the same lower bound serves
    // the tolerant kind for any budget (result.frustrated stays 0).
    result.clique = MbcHeuristicSearch(graph, tau, options).clique;
    return result;
  }

  // PF / gMBC. The anchored greedy does not depend on tau (tau only
  // filters its result), so one run yields every anchor's clique and
  // every tau below reads that pool.
  const std::vector<BalancedClique> pool =
      MbcHeuristicSearch(graph, /*tau=*/0, options).anchor_cliques;

  // Every pooled clique with min side s certifies beta(G) >= s (the same
  // certificate PF* seeds its binary search with); keep the largest.
  size_t widest_min = 0;
  for (const BalancedClique& clique : pool) {
    widest_min = std::max(widest_min, clique.MinSide());
  }
  result.beta = static_cast<uint32_t>(widest_min);
  if (kind == QueryKind::kPf) return result;

  // kGmbc: per tau in [0, beta], the largest pooled clique whose min side
  // reaches tau (the first in pool order on ties), and its size. The
  // candidate set shrinks as tau grows, so the sizes are non-increasing,
  // as exact gMBC sizes are.
  result.gmbc_sizes.reserve(result.beta + 1);
  result.gmbc_cliques.reserve(result.beta + 1);
  for (uint32_t t = 0; t <= result.beta; ++t) {
    const BalancedClique* chosen = nullptr;
    for (const BalancedClique& clique : pool) {
      if (clique.MinSide() >= t &&
          (chosen == nullptr || clique.size() > chosen->size())) {
        chosen = &clique;
      }
    }
    result.gmbc_cliques.push_back(chosen == nullptr ? BalancedClique{}
                                                    : *chosen);
    result.gmbc_sizes.push_back(
        static_cast<uint32_t>(result.gmbc_cliques.back().size()));
  }
  return result;
}

}  // namespace mbc

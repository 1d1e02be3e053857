// Copyright 2026 The balanced-clique Authors.
//
// The degraded answer tier served under brownout: a degeneracy-ordered
// greedy lower bound instead of an exact search. Anchored MBC-Heu runs
// (Algorithm 3 of the paper, O(m) each; MbcHeuristicSearch with local
// search off) at the degree/polar anchors and the densest vertices of the
// degeneracy order produce a feasible balanced clique whose size lower-
// bounds the exact MBC answer and whose min side lower-bounds beta(G) —
// the same well-defined "cheap answer" structure the heuristic-tier
// literature (Ordozgoiti et al., arXiv:2002.00775) builds on. A degraded
// response is always tagged "degraded": true on the wire and cached under
// a separate exactness tag, so it can never masquerade as an exact one.
#ifndef MBC_SERVICE_DEGRADED_H_
#define MBC_SERVICE_DEGRADED_H_

#include <cstdint>

#include "src/graph/signed_graph.h"
#include "src/service/query.h"

namespace mbc {

/// Computes the greedy lower-bound answer for one query. kMbc (and
/// kMbcHeu / kMbcTol, whose degraded answer is the same greedy clique —
/// a balanced clique frustrates no edge, so it is feasible under every
/// tolerance budget): the best anchored greedy clique satisfying tau
/// (possibly empty). kPf: beta lower bound = the largest min side over
/// the greedy cliques. kGmbc: that beta bound plus, per tau in
/// [0, beta], the largest greedy clique with min side >= tau, as its
/// witness (gmbc_cliques) and its size (gmbc_sizes). Each anchor
/// runs once whatever beta is. Deterministic for a given graph; O(k * m)
/// for a handful of anchors.
QueryResult ComputeDegradedResult(const SignedGraph& graph, QueryKind kind,
                                  uint32_t tau);

}  // namespace mbc

#endif  // MBC_SERVICE_DEGRADED_H_

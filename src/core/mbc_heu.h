// Copyright 2026 The balanced-clique Authors.
//
// The heuristic tier: fast lower bounds for the maximum balanced clique.
//
// MbcHeuristic / MbcHeuristicAt are MBC-Heu (Algorithm 3): a linear-time
// greedy that grows a balanced clique inside the dichromatic network of a
// high-degree vertex, alternating sides to keep |C_L| and |C_R| balanced.
// They seed the lower bound of MBC* (Line 2 of Algorithm 2) and PF*
// (Line 1 of Algorithm 4).
//
// MbcHeuristicSearch is the first-class heuristic solver built on top of
// the greedy (grounded in Ordozgoiti et al., arXiv:2002.00775): a wider
// anchor pool (the paper's degree/polar anchors plus the densest vertices
// of the degeneracy order, promoted from the service's brownout tier) and
// a seeded bitset local search (drop-and-regrow swap/add moves over the
// two sides of each anchor's dichromatic network, arena-backed). The
// result is a valid balanced clique — a lower bound the exact solvers
// warm-start from — never a certificate of optimality.
#ifndef MBC_CORE_MBC_HEU_H_
#define MBC_CORE_MBC_HEU_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// Runs the greedy heuristic anchored at the vertex with the largest
/// min{d+(u), d-(u)} (the paper's implementation choice). Returns a
/// balanced clique satisfying τ, or an empty clique if the greedy result
/// violates the constraint. O(m) time and space. `exec` is the optional
/// execution governor (deadline / cancellation / memory budget); on
/// interrupt the best clique found so far is returned — still valid, at
/// worst empty. nullptr disables governance.
BalancedClique MbcHeuristic(const SignedGraph& graph, uint32_t tau,
                            ExecutionContext* exec = nullptr);

/// As above, anchored at an explicit vertex (exposed for tests and the
/// anchor-pool callers).
BalancedClique MbcHeuristicAt(const SignedGraph& graph, VertexId anchor,
                              uint32_t tau, ExecutionContext* exec = nullptr);

/// The five anchors MbcHeuristic tries, in its order: the vertices with
/// the largest min{d+(u), d-(u)}, d+(u), d-(u), total degree and polar-core
/// number (one PDecompose).
std::vector<VertexId> DegreeAndPolarAnchors(const SignedGraph& graph);

/// Knobs for the heuristic-tier solver. The defaults are what the query
/// service's `mbc_heu` kind runs, so they are part of the cache contract:
/// equal (graph, tau, seed, iterations) inputs yield byte-identical
/// results.
struct MbcHeuOptions {
  /// Seed of the local-search move stream. Each anchor derives its own
  /// substream, so runs are deterministic per (seed, graph, tau) and the
  /// iteration sequence of one anchor is a prefix of any longer run.
  uint64_t seed = 0;

  /// Drop-and-regrow rounds per anchor. 0 = pure greedy (the anchor-pool
  /// sweep only). Monotone: with a fixed seed, more iterations never
  /// return a smaller clique.
  uint32_t local_search_iterations = 24;

  /// Degeneracy anchors (the densest tail of the peeling order) tried in
  /// addition to the five degree/polar anchors of MbcHeuristic.
  uint32_t degeneracy_anchors = 4;

  /// Wall-clock safety budget (unset = unlimited). Ignored when `exec`
  /// is supplied.
  std::optional<double> time_limit_seconds;

  /// Shared execution governor; takes precedence over time_limit_seconds.
  /// Owned by the caller; may be null. On interrupt the best clique found
  /// so far is returned (valid, possibly smaller than a full run's).
  ExecutionContext* exec = nullptr;
};

struct MbcHeuStats {
  /// Best clique size after the greedy anchor sweep, before local search.
  size_t greedy_size = 0;
  /// Local-search rounds actually executed (across all anchors).
  uint64_t ls_iterations = 0;
  /// Rounds that improved the incumbent of their anchor.
  uint64_t ls_improvements = 0;
  /// True iff the run was interrupted before completing.
  bool timed_out = false;
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct MbcHeuResult {
  /// The best balanced clique found; empty if none satisfies τ. Always
  /// canonicalized, always verified-balanced by construction.
  BalancedClique clique;
  MbcHeuStats stats;
};

/// The heuristic-tier solver: greedy anchor pool + seeded local search.
/// Deterministic for fixed (graph, tau, options.seed, iterations),
/// whatever thread calls it.
MbcHeuResult MbcHeuristicSearch(const SignedGraph& graph, uint32_t tau,
                                const MbcHeuOptions& options = {});

}  // namespace mbc

#endif  // MBC_CORE_MBC_HEU_H_

// Copyright 2026 The balanced-clique Authors.
//
// The heuristic tier: fast lower bounds for the maximum balanced clique.
//
// One solver, MbcHeuristicSearch, built on MBC-Heu (Algorithm 3): a
// greedy that grows a balanced clique inside the dichromatic network of an
// anchor vertex, alternating sides to keep |C_L| and |C_R| balanced. The
// greedy runs at a small anchor pool (the paper's degree anchor, the
// vertices maximizing d+, d-, total degree and polar-core number, plus the
// densest tail of the degeneracy order), and a seeded bitset local search
// (drop-and-regrow swap/add moves over the two sides of each anchor's
// dichromatic network, arena-backed; grounded in Ordozgoiti et al.,
// arXiv:2002.00775) may then improve each anchor's clique.
//
// Cost per anchor u: the greedy's first pick b is made on the signed
// graph, O(Σ_{x∈N(u)} deg(x)); every later pick lies among b's g_u
// neighbors, so the dense network is built over u, b and those only, and
// a hub anchor costs its edges rather than d(u)² bits. A local-search
// move reads only the common g_u-neighborhood of the members it keeps,
// which lies inside N_gu(y) for any kept member y ≠ u; the network grows
// by such a neighborhood only when no kept member's is in it yet, and the
// one move that keeps u alone (dropping b from {u, b}) repicks on the
// signed graph like the first pick. Once the network would pass half of
// g_u, the whole g_u is built instead (1 + d(u) vertices, about k²/8
// bytes), so a hub's g_u is built only if its moves need half of it.
//
// The anchor pool costs O(n) per call: the degree anchors are one scan,
// and the polar anchor and the degeneracy tail are read from the graph's
// index (src/graph/graph_index.h), which computes PDecompose and the
// degeneracy order once per graph, on the first call that needs them
// (O(n + m) each). Repeated calls on one loaded graph, and MBC*'s call on
// its reduced graph, whose polar part ApplyVertexReduction seeds, pay
// neither again.
//
// MbcHeuristic is the configuration that seeds the lower bound of MBC*
// (Line 2 of Algorithm 2) and PF* (Line 1 of Algorithm 4): the five
// degree/polar anchors, greedy only.
//
// The first anchor's greedy always runs to completion, whatever the
// governor says: one greedy is bounded work, so even a pre-expired
// budget yields a valid lower bound (the interrupt still reports through
// the stats). The result is a valid balanced clique — a lower bound the
// exact solvers warm-start from — never a certificate of optimality.
#ifndef MBC_CORE_MBC_HEU_H_
#define MBC_CORE_MBC_HEU_H_

#include <cstdint>
#include <vector>

#include "src/common/execution.h"
#include "src/core/balanced_clique.h"
#include "src/graph/signed_graph.h"

namespace mbc {

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
  /// addition to the five degree/polar anchors.
  uint32_t degeneracy_anchors = 4;

  /// Shared execution governor. Owned by the caller; may be null. On
  /// interrupt the best clique found so far is returned (valid, possibly
  /// smaller than a full run's).
  ExecutionContext* exec = nullptr;
};

struct MbcHeuStats {
  /// Best clique size after the greedy anchor sweep, before local search.
  size_t greedy_size = 0;
  /// Local-search rounds actually executed (across all anchors).
  uint64_t ls_iterations = 0;
  /// Rounds that improved the incumbent of their anchor.
  uint64_t ls_improvements = 0;
  /// Vertices of the largest dichromatic network built. With local
  /// search off it is at most 2 + the largest first-pick degree in g_u;
  /// with local search on it is at least that and at most 1 + the
  /// largest anchor degree, the size of the networks its moves grew.
  uint32_t max_network_vertices = 0;
  /// True iff the run was interrupted before completing.
  bool timed_out = false;
  InterruptReason interrupt_reason = InterruptReason::kNone;
};

struct MbcHeuResult {
  /// The best balanced clique found; empty if none satisfies τ. Always
  /// canonicalized, always verified-balanced by construction.
  BalancedClique clique;
  /// Each distinct anchor's greedy clique in pool order, taken before the
  /// τ filter and before local search (canonical). Anchors skipped after
  /// an interrupt are absent.
  std::vector<BalancedClique> anchor_cliques;
  MbcHeuStats stats;
};

/// The heuristic-tier solver: greedy anchor pool + seeded local search.
/// Deterministic for fixed (graph, tau, options.seed, iterations),
/// whatever thread calls it.
MbcHeuResult MbcHeuristicSearch(const SignedGraph& graph, uint32_t tau,
                                const MbcHeuOptions& options = {});

/// MBC-Heu as MBC* and PF* run it: MbcHeuristicSearch over the five
/// degree/polar anchors with local search off. Returns the largest greedy
/// clique satisfying τ, or an empty clique. Per anchor u with first pick
/// b: O(Σ_{x∈N(u)} deg(x)) plus a dense network over b's g_u neighbors;
/// the polar anchor needs the graph's pn (built once per graph, or seeded
/// by ApplyVertexReduction).
/// `exec` may be null (ungoverned); on interrupt the best clique found so
/// far is returned.
BalancedClique MbcHeuristic(const SignedGraph& graph, uint32_t tau,
                            ExecutionContext* exec = nullptr);

}  // namespace mbc

#endif  // MBC_CORE_MBC_HEU_H_

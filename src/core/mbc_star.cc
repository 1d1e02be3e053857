// Copyright 2026 The balanced-clique Authors.
#include "src/core/mbc_star.h"

#include <algorithm>
#include <utility>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/mbc_heu.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"

namespace mbc {
namespace {

// Turns an MDC solution (local ids in `net`) into a BalancedClique in the
// id space of the graph `net` was built from, then into input-graph ids via
// `to_input` (empty = identity).
BalancedClique MaterializeClique(const DichromaticNetwork& net,
                                 const std::vector<uint32_t>& locals,
                                 const std::vector<VertexId>& to_input) {
  BalancedClique clique;
  for (uint32_t local : locals) {
    const VertexId mid = net.to_original[local];
    const VertexId v = to_input.empty() ? mid : to_input[mid];
    (net.graph.IsLeft(local) ? clique.left : clique.right).push_back(v);
  }
  clique.Canonicalize();
  return clique;
}

}  // namespace

MbcStarResult MaxBalancedCliqueStar(const SignedGraph& graph, uint32_t tau,
                                    const MbcStarOptions& options) {
  MbcStarResult result;
  MbcStarStats& stats = result.stats;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();

  BalancedClique best;  // in input-graph ids
  if (options.initial_clique != nullptr && !options.initial_clique->empty()) {
    MBC_CHECK(options.initial_clique->SatisfiesThreshold(tau))
        << "initial clique violates the polarization constraint";
    best = *options.initial_clique;
  }

  // ---- Phase 1: graph reductions (Algorithm 2, Line 1). ----
  Timer phase;
  ReducedSignedGraph reduced = ApplyVertexReduction(graph, tau);
  if (options.apply_edge_reduction) {
    reduced.graph = EdgeReduction(reduced.graph, tau, exec);
  }
  stats.reduction_seconds = phase.ElapsedSeconds();

  // ---- Phase 2: heuristic lower bound (Line 2). ----
  phase.Restart();
  if (options.run_heuristic && reduced.graph.NumVertices() > 0) {
    BalancedClique heu = MbcHeuristic(reduced.graph, tau, exec);
    stats.heuristic_size = heu.size();
    if (heu.size() > best.size()) {
      heu.MapToOriginal(reduced.to_original);
      best = std::move(heu);
    }
  }
  stats.heuristic_seconds = phase.ElapsedSeconds();

  if (options.existence_only && !best.empty()) {
    stats.interrupt_reason = exec->reason();
    stats.timed_out = exec->Interrupted();
    result.clique = std::move(best);
    return result;
  }

  // Any clique satisfying τ ≥ 1 has at least 2τ vertices, so sizes in
  // (best, 2τ) can be ruled out a priori.
  size_t prune_bound = best.size();
  if (tau >= 1) {
    prune_bound = std::max<size_t>(prune_bound, 2 * size_t{tau} - 1);
  }

  // ---- Phase 3: search (Lines 3-8). ----
  phase.Restart();
  // Line 3: reduce to the |C*|-core (signs ignored) and renumber.
  const ReducedSignedGraph cored =
      ApplyCoreReduction(reduced, static_cast<uint32_t>(prune_bound));
  const SignedGraph& work = cored.graph;
  // work id -> input id.
  const std::vector<VertexId>& to_input = cored.to_original;

  if (work.NumVertices() > 0) {
    // Line 4: degeneracy ordering.
    const DegeneracyResult degeneracy = DegeneracyDecompose(work);
    const RankedOutLists out_lists(work, degeneracy.rank.data());

    DichromaticNetworkBuilder builder(work, out_lists);
    double sr1_sum = 0.0;
    double sr2_sum = 0.0;
    uint64_t sr_count = 0;

    // Reusable per-search state, hoisted out of the vertex loop: the
    // network, the solver (whose arena amortizes across all MDC
    // instances), and the pruning scratch all grow to a high-water size
    // once and then stop touching the heap.
    DichromaticNetwork net;
    MdcSolver local_solver;
    MdcSolver& solver = options.shared_solver != nullptr
                            ? *options.shared_solver
                            : local_solver;
    solver.SetOptions(
        {options.use_core_pruning, options.use_coloring_bound});
    solver.SetExecution(exec);
    SearchArena prune_arena;  // outer k-core / coloring-bound scratch
    Bitset alive;
    Bitset alive_sans_u;
    Bitset candidates;
    std::vector<uint32_t> solution;
    const std::vector<uint32_t> seed{0};  // u is local vertex 0

    // Line 5: process vertices in reverse degeneracy order.
    for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
         ++it) {
      if (exec->Probe()) break;
      const VertexId u = *it;
      // Cheap pre-check: the network has 1 + |out(u)| vertices; if that
      // cannot beat the incumbent, skip it without paying for the
      // dense-bitset construction.
      if (size_t{out_lists.Degree(u)} + 1 <= prune_bound) continue;

      // Line 6: dichromatic network over higher-ranked neighbors
      // (clear-and-refill into the hoisted network).
      builder.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
      ++stats.num_networks_built;
      const uint32_t k = net.graph.NumVertices();
      if (static_cast<size_t>(k) <= prune_bound) continue;

      // Line 7: |C*|-core of g_u (labels ignored).
      prune_arena.BindNetwork(k);
      // ReshapeUninit + SetAll: the full overwrite makes the cleared words
      // of a plain Reshape dead stores.
      alive.ReshapeUninit(k);
      alive.SetAll();
      size_t alive_count = k;
      if (options.use_core_pruning) {
        KCoreWithinInPlace(net.graph, &alive,
                           static_cast<uint32_t>(prune_bound),
                           &prune_arena.pending(), &alive_count);
        if (!alive.Test(0) || alive_count <= prune_bound) continue;
      }

      // Line 8: coloring-based pruning, then MDC.
      if (options.use_coloring_bound &&
          ColoringBoundWithin(net.graph, alive,
                              static_cast<uint32_t>(prune_bound),
                              &prune_arena) <= prune_bound) {
        continue;
      }

      ++stats.num_mdc_instances;
      if (net.ego_edges > 0) {
        alive_sans_u.CopyFrom(alive);
        alive_sans_u.Reset(0);
        const uint64_t core_edges = net.graph.EdgesWithin(alive_sans_u);
        sr1_sum += 1.0 - static_cast<double>(net.dichromatic_edges) /
                             static_cast<double>(net.ego_edges);
        sr2_sum += 1.0 - static_cast<double>(core_edges) /
                             static_cast<double>(net.ego_edges);
        ++sr_count;
      }

      candidates.CopyFrom(alive);
      candidates.Reset(0);
      solver.Rebind(net.graph);
      const bool improved = solver.Solve(
          seed, candidates, static_cast<int32_t>(tau) - 1,
          static_cast<int32_t>(tau), prune_bound, &solution,
          options.existence_only);
      stats.mdc_branches += solver.branches();
      if (improved) {
        best = MaterializeClique(net, solution, to_input);
        prune_bound = best.size();
        if (options.existence_only) break;
      }
    }
    if (sr_count > 0) {
      stats.avg_sr1 = sr1_sum / static_cast<double>(sr_count);
      stats.avg_sr2 = sr2_sum / static_cast<double>(sr_count);
    }
  }
  stats.search_seconds = phase.ElapsedSeconds();

  stats.interrupt_reason = exec->reason();
  stats.timed_out = exec->Interrupted();
  result.clique = std::move(best);
  return result;
}

}  // namespace mbc

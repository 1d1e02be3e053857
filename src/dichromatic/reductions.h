// Copyright 2026 The balanced-clique Authors.
//
// Pruning primitives on dichromatic graphs, used inside MDC (Algorithm 2)
// and DCC (Algorithm 4): k-core peeling ignoring labels, the (τ_L, τ_R)-core
// of Section IV-C, and the greedy-coloring clique upper bound. All operate
// on a candidate subset passed as a bitset, leaving the graph untouched.
#ifndef MBC_DICHROMATIC_REDUCTIONS_H_
#define MBC_DICHROMATIC_REDUCTIONS_H_

#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/dichromatic/dichromatic_graph.h"

namespace mbc {

/// Peels `candidates` to the k-core of the induced subgraph (labels
/// ignored): the returned set is the maximal subset in which every vertex
/// has at least k neighbors inside the subset.
Bitset KCoreWithin(const DichromaticGraph& graph, const Bitset& candidates,
                   uint32_t k);

/// Allocation-free variant: peels *alive in place. `pending` is
/// caller-owned scratch (cleared here; capacity is reused), typically a
/// SearchArena's pending stack. `alive_count` is in/out: it must hold
/// |*alive| on entry and is decremented per peeled vertex, so callers get
/// the surviving population without a Count() pass.
///
/// `degrees`, when non-null, is a vertex-indexed table (size ≥
/// NumVertices) that on return holds DegreeWithin(v, *alive) for every
/// surviving v (entries of peeled vertices are stale). The peel then runs
/// decrement-maintained instead of recomputing degrees in the cascade, so
/// the initial sweep is the only intersect+popcount pass — and the caller
/// inherits the degree table its own node logic needs. The surviving set
/// is identical either way (the k-core is canonical).
void KCoreWithinInPlace(const DichromaticGraph& graph, Bitset* alive,
                        uint32_t k, std::vector<uint32_t>* pending,
                        size_t* alive_count,
                        std::vector<uint32_t>* degrees = nullptr);

/// The (τ_L, τ_R)-core (Section IV-C): the maximal subset in which every
/// L-vertex has ≥ τ_L - 1 L-neighbors and ≥ τ_R R-neighbors, and every
/// R-vertex has ≥ τ_L L-neighbors and ≥ τ_R - 1 R-neighbors. Negative
/// thresholds are treated as 0.
Bitset TwoSidedCoreWithin(const DichromaticGraph& graph,
                          const Bitset& candidates, int32_t tau_l,
                          int32_t tau_r);

/// Allocation-free variant of TwoSidedCoreWithin (see KCoreWithinInPlace
/// for the pending / alive_count / degrees contracts; here `degrees`
/// receives *total* within-set degrees, maintained by decrement during
/// the peel). A vertex's L-degree is one fused popcount of its row, the
/// side mask and `alive`; its R-degree is the rest of its alive degree.
void TwoSidedCoreWithinInPlace(const DichromaticGraph& graph, Bitset* alive,
                               int32_t tau_l, int32_t tau_r,
                               std::vector<uint32_t>* pending,
                               size_t* alive_count,
                               std::vector<uint32_t>* degrees = nullptr);

/// Greedy-coloring upper bound on the maximum clique size of the subgraph
/// induced by `candidates` (labels ignored). Colors vertices in descending
/// within-subgraph degree order.
///
/// `early_exit_above`: callers use the bound only to test
/// "colorUB <= target"; once the class count exceeds `early_exit_above`
/// the test is already decided, so the coloring stops and returns the
/// (partial) class count. The return value is then a *lower* bound on the
/// true coloring number — only the comparison against `early_exit_above`
/// remains meaningful. Keeps the cost low on near-clique candidate sets.
uint32_t ColoringBoundWithin(const DichromaticGraph& graph,
                             const Bitset& candidates,
                             uint32_t early_exit_above = UINT32_MAX);

/// Allocation-free variant backed by `arena`'s flat scratch (the pair
/// vector and the color-class rows). Must not be called while another
/// arena-backed coloring on the same arena is in flight; the MDC/DCC
/// kernels call it only between recursive descents, where that holds.
///
/// `degrees`, when non-null, is a vertex-indexed table that already holds
/// DegreeWithin(v, candidates) for every candidate v; the coloring then
/// skips its own degree sweep. The values MUST equal what DegreeWithin
/// would return — the sort order (and thus the bound) is identical either
/// way, which the differential suites rely on.
uint32_t ColoringBoundWithin(const DichromaticGraph& graph,
                             const Bitset& candidates,
                             uint32_t early_exit_above, SearchArena* arena,
                             const std::vector<uint32_t>* degrees = nullptr);

}  // namespace mbc

#endif  // MBC_DICHROMATIC_REDUCTIONS_H_

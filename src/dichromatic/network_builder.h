// Copyright 2026 The balanced-clique Authors.
//
// Extraction of ego-networks and dichromatic networks (Section III-B).
//
// For a vertex u of a signed graph G and a total ordering of V:
//   * the ego-network G_u is the subgraph induced by u and u's higher-ranked
//     neighbors;
//   * the dichromatic network g_u labels V_L = {u} ∪ N+(u), V_R = N-(u),
//     removes all *conflicting* edges (negative inside a side, positive
//     across sides) and then discards edge signs.
// Theorem 2: the maximum balanced clique containing u as a lowest-ranked
// vertex equals the maximum dichromatic clique containing u in g_u.
#ifndef MBC_DICHROMATIC_NETWORK_BUILDER_H_
#define MBC_DICHROMATIC_NETWORK_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/dichromatic/dichromatic_graph.h"
#include "src/graph/signed_graph.h"

namespace mbc {

/// A dichromatic network g_u plus bookkeeping for instrumentation.
struct DichromaticNetwork {
  /// The dichromatic graph. Local vertex 0 is u itself (an L-vertex).
  DichromaticGraph graph;
  /// Maps local ids to vertex ids in the original signed graph.
  std::vector<VertexId> to_original;
  /// Edges of the ego-network G_u, excluding edges incident to u (the
  /// paper's Example 1 convention for reporting reduction ratios).
  uint64_t ego_edges = 0;
  /// Edges of g_u, excluding edges incident to u. SR1 = 1 - dichromatic
  /// edges / ego edges.
  uint64_t dichromatic_edges = 0;
};

/// The graph oriented by a vertex rank: for every vertex v, its
/// higher-ranked neighbors (rank[w] > rank[v]), split by sign and kept in
/// ascending id order, so every undirected edge is stored once, at its
/// lower-ranked endpoint. Under a degeneracy order every out-list has at
/// most δ entries. Built in O(n + m); 4 bytes per edge plus 16 per vertex.
/// Read-only once built, so any number of builders (one per worker
/// thread) may share one copy.
class RankedOutLists {
 public:
  RankedOutLists() = default;
  /// `rank` (size n) must be a total order (distinct values) and outlive
  /// the lists; builders check that they are called with this pointer.
  RankedOutLists(const SignedGraph& graph, const uint32_t* rank);

  const uint32_t* rank() const { return rank_; }

  std::span<const VertexId> Positive(VertexId v) const {
    return {targets_.data() + begin_[v], targets_.data() + neg_begin_[v]};
  }
  std::span<const VertexId> Negative(VertexId v) const {
    return {targets_.data() + neg_begin_[v], targets_.data() + begin_[v + 1]};
  }
  uint32_t PositiveDegree(VertexId v) const {
    return static_cast<uint32_t>(neg_begin_[v] - begin_[v]);
  }
  uint32_t NegativeDegree(VertexId v) const {
    return static_cast<uint32_t>(begin_[v + 1] - neg_begin_[v]);
  }
  /// |out(v)|: the size of g_v minus one when no alive filter applies.
  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(begin_[v + 1] - begin_[v]);
  }

 private:
  const uint32_t* rank_ = nullptr;
  // out(v) = targets_[begin_[v], begin_[v+1]); its negative part starts
  // at neg_begin_[v].
  std::vector<EdgeCount> begin_;
  std::vector<EdgeCount> neg_begin_;
  std::vector<VertexId> targets_;
};

/// Builds dichromatic networks for successive vertices of one signed graph.
/// Keeps O(n) per-vertex stamps. A ranked build admits u's out-list and
/// finds the edges among members by scanning each member's out-list, so
/// it costs O(deg(u) + sum of member out-degrees) — O(deg(u) + k·δ) under
/// a degeneracy order. A rank-less build (the full neighborhood) scans the
/// id-suffix of each member's adjacency, O(sum of member degrees).
class DichromaticNetworkBuilder {
 public:
  /// `graph` must outlive the builder. The out-lists are built (O(m)) on
  /// the first ranked call and bound to that call's rank pointer; a later
  /// ranked call with another pointer is a fatal error (MBC_CHECK).
  explicit DichromaticNetworkBuilder(const SignedGraph& graph);

  /// Borrows `out_lists` (built over `graph`; must outlive the builder)
  /// instead of building its own; ranked calls must pass
  /// `out_lists.rank()` (MBC_CHECK).
  DichromaticNetworkBuilder(const SignedGraph& graph,
                            const RankedOutLists& out_lists);

  // Not copyable: `out_` may point into the builder's own `owned_out_`.
  DichromaticNetworkBuilder(const DichromaticNetworkBuilder&) = delete;
  DichromaticNetworkBuilder& operator=(const DichromaticNetworkBuilder&) =
      delete;

  /// Builds g_u. If `rank` is non-null (size n), only neighbors v with
  /// rank[v] > rank[u] join the network; every ranked call on one builder
  /// must pass the same rank. If `alive` is non-null (size n), only alive
  /// neighbors join. u itself always joins (as local vertex 0) and must be
  /// alive.
  DichromaticNetwork Build(VertexId u, const uint32_t* rank = nullptr,
                           const uint8_t* alive = nullptr);

  /// Clear-and-refill variant: emits g_u into a caller-owned network whose
  /// storage is reused across calls. After the reused network has seen its
  /// largest g_u, further refills perform no heap allocation; callers in
  /// the MBC*/PF* vertex loops hoist one DichromaticNetwork out of the
  /// loop and pass it here for every u.
  void BuildInto(VertexId u, const uint32_t* rank, const uint8_t* alive,
                 DichromaticNetwork* net);

  /// The vertex of `side` with the most neighbors in the rank-less,
  /// unfiltered g_u among the other members (u excluded), lowest id on
  /// ties, found without building g_u: N(u) is stamped with its sides and
  /// each vertex of `side` counts its kept edges by scanning its signed
  /// adjacency, O(d(u) + Σ deg(x) over that side). Within a side the local
  /// ids of g_u ascend with the vertex ids, so this is the max-degree
  /// candidate of a dense scan over g_u's local ids. Appends the winner's
  /// g_u neighbors other than u to `*neighbors`. Precondition: that side
  /// of N(u) is not empty.
  VertexId MaxDegreeMember(VertexId u, Side side,
                           std::vector<VertexId>* neighbors) {
    return MaxDegreeMember(u, side, u, nullptr, nullptr, neighbors);
  }

  /// The seeded-tie variant: the pick of a randomized dense scan over g_u
  /// without one tabu member. `tabu` (a member of N(u), or u for none) is
  /// neither a candidate nor counted in any degree, nor appended to
  /// `*neighbors`. With `rng` non-null the max-degree candidates are
  /// collected in ascending id order into `*ties`, and one is drawn with
  /// rng->NextBounded only when there are several; with it null the
  /// lowest id wins.
  /// Precondition: that side of N(u) holds a vertex other than `tabu`.
  VertexId MaxDegreeMember(VertexId u, Side side, VertexId tabu, Rng* rng,
                           std::vector<VertexId>* ties,
                           std::vector<VertexId>* neighbors);

  /// Appends y's neighbors in the rank-less, unfiltered g_u other than u,
  /// for a member y of N(u), without building g_u: O(d(u) + deg(y)).
  void AppendNetworkNeighbors(VertexId u, VertexId y,
                              std::vector<VertexId>* neighbors);

 private:
  // Advances current_stamp_, clearing every key on wrap-around.
  void NextStamp();
  // Stamps N(u) under a fresh stamp with its g_u sides and returns the
  // stamp (shifted past the side bit).
  uint32_t StampSides(VertexId u);
  // Appends the neighbors of x whose key is `same` over a positive edge
  // or `other` over a negative one.
  void AppendKept(VertexId x, uint32_t same, uint32_t other,
                  std::vector<VertexId>* neighbors) const;

  const SignedGraph& graph_;
  // The out-lists ranked builds read: `owned_out_` (bound on the first
  // ranked call) or a borrowed shared copy.
  RankedOutLists owned_out_;
  const RankedOutLists* out_ = nullptr;
  // Per vertex: key = stamp << 1 | (1 if an L-member), and the local id,
  // valid only while the key's stamp is current. Kept apart so the
  // out-list scan reads 4 bytes per entry.
  static constexpr uint32_t kStampLimit = uint32_t{1} << 31;
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> local_id_;
  uint32_t current_stamp_ = 0;
  // The kept entries of the out-list being classified; grows to the
  // longest list once, so warm refills do not allocate.
  std::vector<uint32_t> kept_;
};

}  // namespace mbc

#endif  // MBC_DICHROMATIC_NETWORK_BUILDER_H_

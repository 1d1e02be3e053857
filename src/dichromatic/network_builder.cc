// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/network_builder.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mbc {
namespace {

/// The neighbors of x with a larger id than x (adjacency is id-sorted).
std::span<const VertexId> IdSuffix(std::span<const VertexId> neighbors,
                                   VertexId x) {
  return {std::upper_bound(neighbors.begin(), neighbors.end(), x),
          neighbors.end()};
}

}  // namespace

RankedOutLists::RankedOutLists(const SignedGraph& graph, const uint32_t* rank)
    : rank_(rank),
      begin_(graph.NumVertices() + size_t{1}),
      neg_begin_(graph.NumVertices()),
      targets_(graph.NumEdges()) {
  EdgeCount next = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    begin_[v] = next;
    for (VertexId w : graph.PositiveNeighbors(v)) {
      if (rank[w] > rank[v]) targets_[next++] = w;
    }
    neg_begin_[v] = next;
    for (VertexId w : graph.NegativeNeighbors(v)) {
      if (rank[w] > rank[v]) targets_[next++] = w;
    }
  }
  begin_[graph.NumVertices()] = next;
  // A total order stores every edge exactly once.
  MBC_DCHECK(next == targets_.size());
}

DichromaticNetworkBuilder::DichromaticNetworkBuilder(const SignedGraph& graph)
    : graph_(graph),
      keys_(graph.NumVertices(), 0),
      local_id_(graph.NumVertices(), 0) {}

DichromaticNetworkBuilder::DichromaticNetworkBuilder(
    const SignedGraph& graph, const RankedOutLists& out_lists)
    : DichromaticNetworkBuilder(graph) {
  out_ = &out_lists;
}

DichromaticNetwork DichromaticNetworkBuilder::Build(VertexId u,
                                                    const uint32_t* rank,
                                                    const uint8_t* alive) {
  DichromaticNetwork net;
  BuildInto(u, rank, alive, &net);
  return net;
}

void DichromaticNetworkBuilder::NextStamp() {
  // The stamp shares its key with the side bit, so it has 31 bits; on
  // wrap-around every key is cleared, so no stale key can match.
  if (++current_stamp_ == kStampLimit) {
    std::fill(keys_.begin(), keys_.end(), 0);
    current_stamp_ = 1;
  }
}

void DichromaticNetworkBuilder::BuildInto(VertexId u, const uint32_t* rank,
                                          const uint8_t* alive,
                                          DichromaticNetwork* out) {
  MBC_DCHECK(alive == nullptr || alive[u]);
  if (rank != nullptr && out_ == nullptr) {
    owned_out_ = RankedOutLists(graph_, rank);
    out_ = &owned_out_;
  }
  // A builder's out-lists belong to one rank; a different rank would
  // silently build wrong networks. One compare per build.
  MBC_CHECK(rank == nullptr || out_->rank() == rank)
      << "BuildInto rank differs from the rank the out-lists were built from";
  NextStamp();

  DichromaticNetwork& net = *out;
  net.to_original.clear();
  net.ego_edges = 0;
  net.dichromatic_edges = 0;
  net.to_original.push_back(u);  // local 0 = u

  auto admit = [&](std::span<const VertexId> candidates, uint32_t left) {
    const uint32_t key = current_stamp_ << 1 | left;
    for (VertexId v : candidates) {
      if (alive != nullptr && !alive[v]) continue;
      keys_[v] = key;
      local_id_[v] = static_cast<uint32_t>(net.to_original.size());
      net.to_original.push_back(v);
    }
  };
  // V_L first (positive neighbors), then V_R (negative neighbors), each in
  // ascending id order; the sides are recorded below by index range.
  admit(rank != nullptr ? out_->Positive(u) : graph_.PositiveNeighbors(u), 1);
  const uint32_t num_left = static_cast<uint32_t>(net.to_original.size());
  admit(rank != nullptr ? out_->Negative(u) : graph_.NegativeNeighbors(u), 0);

  const uint32_t k = static_cast<uint32_t>(net.to_original.size());
  net.graph.Reset(k);
  for (uint32_t i = 0; i < num_left; ++i) net.graph.SetSide(i, Side::kLeft);
  for (uint32_t i = num_left; i < k; ++i) net.graph.SetSide(i, Side::kRight);

  // u is adjacent to every other member by construction, and those edges
  // are never conflicting (positive to V_L, negative to V_R).
  for (uint32_t i = 1; i < k; ++i) net.graph.AddEdge(0, i);

  // Edges among the members (excluding u, which is never stamped): each
  // is met once, in the out-list of its lower-ranked endpoint, or for a
  // rank-less build in the id-suffix of its lower-id endpoint. An entry
  // is a hit iff its stamp is current, and kept iff it is also
  // non-conflicting: a positive edge within one side or a negative edge
  // across the sides, so the wanted side bit is x's XOR `negative`. About
  // a third of hits conflict, in no pattern a branch predictor learns, so
  // the scan is branch-free: one compare of the whole key decides `keep`,
  // every entry is written to the scratch, and the kept count advances by
  // `keep`. Only the kept entries then read their local ids.
  auto add_edges = [&](uint32_t i, std::span<const VertexId> list,
                       uint32_t negative) {
    if (kept_.size() < list.size()) kept_.resize(list.size());
    uint32_t* kept = kept_.data();
    const uint32_t hit_key = current_stamp_ << 1 | 1;
    const uint32_t want = current_stamp_ << 1 | ((i < num_left) ^ negative);
    uint32_t hits = 0;
    uint32_t num_kept = 0;
    for (VertexId y : list) {
      const uint32_t key = keys_[y];
      kept[num_kept] = y;
      num_kept += key == want;
      hits += (key | 1) == hit_key;
    }
    for (uint32_t t = 0; t < num_kept; ++t) {
      net.graph.AddEdge(i, local_id_[kept[t]]);
    }
    net.ego_edges += hits;
    net.dichromatic_edges += num_kept;
  };
  for (uint32_t i = 1; i < k; ++i) {
    const VertexId x = net.to_original[i];
    if (rank != nullptr) {
      add_edges(i, out_->Positive(x), 0);
      add_edges(i, out_->Negative(x), 1);
    } else {
      add_edges(i, IdSuffix(graph_.PositiveNeighbors(x), x), 0);
      add_edges(i, IdSuffix(graph_.NegativeNeighbors(x), x), 1);
    }
  }
}

uint32_t DichromaticNetworkBuilder::StampSides(VertexId u) {
  NextStamp();
  const uint32_t stamp = current_stamp_ << 1;
  for (VertexId v : graph_.PositiveNeighbors(u)) keys_[v] = stamp | 1;
  for (VertexId v : graph_.NegativeNeighbors(u)) keys_[v] = stamp;
  return stamp;
}

void DichromaticNetworkBuilder::AppendKept(
    VertexId x, uint32_t same, uint32_t other,
    std::vector<VertexId>* neighbors) const {
  for (VertexId y : graph_.PositiveNeighbors(x)) {
    if (keys_[y] == same) neighbors->push_back(y);
  }
  for (VertexId y : graph_.NegativeNeighbors(x)) {
    if (keys_[y] == other) neighbors->push_back(y);
  }
}

VertexId DichromaticNetworkBuilder::MaxDegreeMember(
    VertexId u, Side side, VertexId tabu, Rng* rng,
    std::vector<VertexId>* ties, std::vector<VertexId>* neighbors) {
  const uint32_t left = side == Side::kLeft;
  const std::span<const VertexId> members =
      left ? graph_.PositiveNeighbors(u) : graph_.NegativeNeighbors(u);
  const uint32_t stamp = StampSides(u);
  // An edge of g_u is positive within a side or negative across the
  // sides; u itself is never stamped, so it is never counted, and neither
  // is the tabu vertex once its key is cleared.
  keys_[tabu] = 0;
  const uint32_t same = stamp | left;
  const uint32_t other = stamp | (left ^ 1);
  auto degree = [&](VertexId x) {
    uint32_t d = 0;
    for (VertexId y : graph_.PositiveNeighbors(x)) d += keys_[y] == same;
    for (VertexId y : graph_.NegativeNeighbors(x)) d += keys_[y] == other;
    return d;
  };
  VertexId best = kInvalidVertex;
  uint32_t best_degree = 0;
  if (rng != nullptr) ties->clear();
  for (VertexId x : members) {
    if (x == tabu) continue;
    const uint32_t d = degree(x);
    if (best == kInvalidVertex || d > best_degree) {
      best = x;
      best_degree = d;
      if (rng != nullptr) {
        ties->clear();
        ties->push_back(x);
      }
    } else if (rng != nullptr && d == best_degree) {
      ties->push_back(x);
    }
  }
  MBC_CHECK(best != kInvalidVertex);
  if (rng != nullptr && ties->size() > 1) {
    best = (*ties)[rng->NextBounded(ties->size())];
  }
  AppendKept(best, same, other, neighbors);
  return best;
}

void DichromaticNetworkBuilder::AppendNetworkNeighbors(
    VertexId u, VertexId y, std::vector<VertexId>* neighbors) {
  const uint32_t stamp = StampSides(u);
  const uint32_t left = (keys_[y] & 1) != 0;
  MBC_DCHECK(keys_[y] >> 1 == current_stamp_);
  AppendKept(y, stamp | left, stamp | (left ^ 1), neighbors);
}

}  // namespace mbc

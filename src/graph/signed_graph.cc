// Copyright 2026 The balanced-clique Authors.
#include "src/graph/signed_graph.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/graph/graph_index.h"

namespace mbc {
namespace {

bool SortedContains(std::span<const VertexId> sorted, VertexId target) {
  return std::binary_search(sorted.begin(), sorted.end(), target);
}

}  // namespace

bool SignedGraph::HasPositiveEdge(VertexId u, VertexId v) const {
  // Probe the smaller adjacency list.
  if (PositiveDegree(u) > PositiveDegree(v)) std::swap(u, v);
  return SortedContains(PositiveNeighbors(u), v);
}

bool SignedGraph::HasNegativeEdge(VertexId u, VertexId v) const {
  if (NegativeDegree(u) > NegativeDegree(v)) std::swap(u, v);
  return SortedContains(NegativeNeighbors(u), v);
}

std::optional<Sign> SignedGraph::EdgeSign(VertexId u, VertexId v) const {
  if (HasPositiveEdge(u, v)) return Sign::kPositive;
  if (HasNegativeEdge(u, v)) return Sign::kNegative;
  return std::nullopt;
}

double SignedGraph::NegativeEdgeRatio() const {
  const EdgeCount total = NumEdges();
  if (total == 0) return 0.0;
  return static_cast<double>(NumNegativeEdges()) / static_cast<double>(total);
}

SignedGraph::InducedResult SignedGraph::InducedSubgraph(
    std::span<const VertexId> vertices) const {
  std::vector<VertexId> to_original(vertices.begin(), vertices.end());
  // Map old id -> new id; kInvalidVertex marks "not selected".
  std::vector<VertexId> to_new(num_vertices_, kInvalidVertex);
  bool ascending = true;
  for (size_t i = 0; i < to_original.size(); ++i) {
    const VertexId old_id = to_original[i];
    MBC_CHECK_LT(old_id, num_vertices_);
    MBC_CHECK(to_new[old_id] == kInvalidVertex)
        << "duplicate vertex in induced subgraph selection";
    to_new[old_id] = static_cast<VertexId>(i);
    ascending = ascending && (i == 0 || to_original[i - 1] < old_id);
  }

  // Filter each selected row through `to_new`. An ascending selection
  // keeps to_new monotone on the kept ids, so every filtered row is
  // already id-sorted; any other order sorts each row once.
  const VertexId k = static_cast<VertexId>(to_original.size());
  auto filter = [&](auto neighbors_of, std::vector<uint64_t>* offsets,
                    std::vector<VertexId>* kept) {
    // Reserve the selected rows' full length: pages past the kept entries
    // are never touched, and shrink_to_fit below returns them.
    uint64_t bound = 0;
    for (VertexId old_u : to_original) bound += neighbors_of(old_u).size();
    kept->reserve(bound);
    offsets->assign(k + size_t{1}, 0);
    for (VertexId new_u = 0; new_u < k; ++new_u) {
      for (VertexId old_v : neighbors_of(to_original[new_u])) {
        const VertexId new_v = to_new[old_v];
        if (new_v != kInvalidVertex) kept->push_back(new_v);
      }
      (*offsets)[new_u + 1] = kept->size();
      if (!ascending) {
        std::sort(kept->begin() + static_cast<long>((*offsets)[new_u]),
                  kept->end());
      }
    }
    kept->shrink_to_fit();
  };
  std::vector<uint64_t> pos_offsets;
  std::vector<VertexId> pos_neighbors;
  std::vector<uint64_t> neg_offsets;
  std::vector<VertexId> neg_neighbors;
  filter([this](VertexId v) { return PositiveNeighbors(v); }, &pos_offsets,
         &pos_neighbors);
  filter([this](VertexId v) { return NegativeNeighbors(v); }, &neg_offsets,
         &neg_neighbors);
  return InducedResult{
      FromOwnedCsr(k, std::move(pos_offsets), std::move(pos_neighbors),
                   std::move(neg_offsets), std::move(neg_neighbors)),
      std::move(to_original)};
}

size_t SignedGraph::MemoryBytes() const {
  return owned_pos_offsets_.capacity() * sizeof(uint64_t) +
         owned_neg_offsets_.capacity() * sizeof(uint64_t) +
         owned_pos_neighbors_.capacity() * sizeof(VertexId) +
         owned_neg_neighbors_.capacity() * sizeof(VertexId);
}

GraphIndex& SignedGraph::Index() const {
  if (index_ != nullptr) return *index_;
  MBC_DCHECK(num_vertices_ == 0);
  static GraphIndex empty_graph_index;
  return empty_graph_index;
}

void SignedGraph::ResetIndex() { index_ = std::make_shared<GraphIndex>(); }

void SignedGraph::BindOwnedViews() {
  pos_offsets_ = owned_pos_offsets_.data();
  pos_neighbors_ = owned_pos_neighbors_.data();
  neg_offsets_ = owned_neg_offsets_.data();
  neg_neighbors_ = owned_neg_neighbors_.data();
  pos_entries_ = owned_pos_neighbors_.size();
  neg_entries_ = owned_neg_neighbors_.size();
}

void SignedGraph::CopyFrom(const SignedGraph& other) {
  num_vertices_ = other.num_vertices_;
  pos_entries_ = other.pos_entries_;
  neg_entries_ = other.neg_entries_;
  mapped_bytes_ = other.mapped_bytes_;
  fingerprint_hint_ = other.fingerprint_hint_;
  has_fingerprint_hint_ = other.has_fingerprint_hint_;
  payload_ = other.payload_;
  index_ = other.index_;
  if (payload_ != nullptr) {
    // Mapped: copies share the payload and its views — O(1).
    owned_pos_offsets_.clear();
    owned_pos_neighbors_.clear();
    owned_neg_offsets_.clear();
    owned_neg_neighbors_.clear();
    pos_offsets_ = other.pos_offsets_;
    pos_neighbors_ = other.pos_neighbors_;
    neg_offsets_ = other.neg_offsets_;
    neg_neighbors_ = other.neg_neighbors_;
  } else {
    owned_pos_offsets_ = other.owned_pos_offsets_;
    owned_pos_neighbors_ = other.owned_pos_neighbors_;
    owned_neg_offsets_ = other.owned_neg_offsets_;
    owned_neg_neighbors_ = other.owned_neg_neighbors_;
    BindOwnedViews();
  }
}

void SignedGraph::MoveFrom(SignedGraph&& other) noexcept {
  num_vertices_ = other.num_vertices_;
  pos_entries_ = other.pos_entries_;
  neg_entries_ = other.neg_entries_;
  mapped_bytes_ = other.mapped_bytes_;
  fingerprint_hint_ = other.fingerprint_hint_;
  has_fingerprint_hint_ = other.has_fingerprint_hint_;
  payload_ = std::move(other.payload_);
  index_ = std::move(other.index_);
  owned_pos_offsets_ = std::move(other.owned_pos_offsets_);
  owned_pos_neighbors_ = std::move(other.owned_pos_neighbors_);
  owned_neg_offsets_ = std::move(other.owned_neg_offsets_);
  owned_neg_neighbors_ = std::move(other.owned_neg_neighbors_);
  if (payload_ != nullptr) {
    pos_offsets_ = other.pos_offsets_;
    pos_neighbors_ = other.pos_neighbors_;
    neg_offsets_ = other.neg_offsets_;
    neg_neighbors_ = other.neg_neighbors_;
  } else {
    // Moved vectors keep their heap blocks, but rebind for clarity (and
    // for the small-graph case where pointers may differ).
    BindOwnedViews();
  }
  other.num_vertices_ = 0;
  other.pos_entries_ = 0;
  other.neg_entries_ = 0;
  other.mapped_bytes_ = 0;
  other.has_fingerprint_hint_ = false;
  other.pos_offsets_ = nullptr;
  other.pos_neighbors_ = nullptr;
  other.neg_offsets_ = nullptr;
  other.neg_neighbors_ = nullptr;
}

SignedGraph SignedGraph::FromOwnedCsr(VertexId num_vertices,
                                      std::vector<uint64_t> pos_offsets,
                                      std::vector<VertexId> pos_neighbors,
                                      std::vector<uint64_t> neg_offsets,
                                      std::vector<VertexId> neg_neighbors) {
  MBC_CHECK_EQ(pos_offsets.size(), num_vertices + size_t{1});
  MBC_CHECK_EQ(neg_offsets.size(), num_vertices + size_t{1});
  MBC_CHECK_EQ(pos_offsets.back(), pos_neighbors.size());
  MBC_CHECK_EQ(neg_offsets.back(), neg_neighbors.size());
  SignedGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.owned_pos_offsets_ = std::move(pos_offsets);
  graph.owned_pos_neighbors_ = std::move(pos_neighbors);
  graph.owned_neg_offsets_ = std::move(neg_offsets);
  graph.owned_neg_neighbors_ = std::move(neg_neighbors);
  graph.BindOwnedViews();
  graph.ResetIndex();
  return graph;
}

SignedGraph SignedGraph::FromMappedCsr(
    VertexId num_vertices, const uint64_t* pos_offsets,
    const VertexId* pos_neighbors, uint64_t pos_entries,
    const uint64_t* neg_offsets, const VertexId* neg_neighbors,
    uint64_t neg_entries, std::shared_ptr<const void> payload,
    size_t mapped_bytes, uint64_t fingerprint_hint) {
  SignedGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.pos_offsets_ = pos_offsets;
  graph.pos_neighbors_ = pos_neighbors;
  graph.pos_entries_ = pos_entries;
  graph.neg_offsets_ = neg_offsets;
  graph.neg_neighbors_ = neg_neighbors;
  graph.neg_entries_ = neg_entries;
  graph.payload_ = std::move(payload);
  graph.mapped_bytes_ = mapped_bytes;
  graph.fingerprint_hint_ = fingerprint_hint;
  graph.has_fingerprint_hint_ = true;
  graph.ResetIndex();
  MBC_CHECK(graph.payload_ != nullptr)
      << "FromMappedCsr requires a payload keeper";
  return graph;
}

}  // namespace mbc

// Copyright 2026 The balanced-clique Authors.
#include "src/graph/signed_graph_builder.h"

#include <algorithm>

#include "src/common/logging.h"

namespace mbc {

void SignedGraphBuilder::AddEdge(VertexId u, VertexId v, Sign sign) {
  MBC_CHECK_NE(u, v) << "self-loops are not allowed in a simple signed graph";
  if (u > v) std::swap(u, v);
  num_vertices_ = std::max(num_vertices_, v + 1);
  edges_.push_back(PendingEdge{u, v, sign});
}

bool SignedGraphBuilder::Finalize(SignedGraph* out) {
  // Sort by endpoint pair, positives first within a pair so conflict
  // detection sees the positive copy first.
  std::sort(edges_.begin(), edges_.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              if (a.v != b.v) return a.v < b.v;
              return static_cast<int>(a.sign) < static_cast<int>(b.sign);
            });

  // De-duplicate, resolving sign conflicts.
  std::vector<PendingEdge> unique;
  unique.reserve(edges_.size());
  for (size_t i = 0; i < edges_.size();) {
    size_t j = i;
    bool has_pos = false;
    bool has_neg = false;
    while (j < edges_.size() && edges_[j].u == edges_[i].u &&
           edges_[j].v == edges_[i].v) {
      (edges_[j].sign == Sign::kPositive ? has_pos : has_neg) = true;
      ++j;
    }
    if (has_pos && has_neg) {
      switch (conflict_policy_) {
        case SignConflictPolicy::kError:
          return false;
        case SignConflictPolicy::kDropEdge:
          break;  // skip the edge
        case SignConflictPolicy::kKeepNegative:
          unique.push_back(PendingEdge{edges_[i].u, edges_[i].v,
                                       Sign::kNegative});
          break;
      }
    } else {
      unique.push_back(edges_[i]);
    }
    i = j;
  }

  const VertexId n = num_vertices_;
  std::vector<uint32_t> pos_degree(n, 0);
  std::vector<uint32_t> neg_degree(n, 0);
  for (const PendingEdge& e : unique) {
    auto& degree = (e.sign == Sign::kPositive) ? pos_degree : neg_degree;
    ++degree[e.u];
    ++degree[e.v];
  }

  out->num_vertices_ = n;
  out->owned_pos_offsets_.assign(n + 1, 0);
  out->owned_neg_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    out->owned_pos_offsets_[v + 1] = out->owned_pos_offsets_[v] + pos_degree[v];
    out->owned_neg_offsets_[v + 1] = out->owned_neg_offsets_[v] + neg_degree[v];
  }
  out->owned_pos_neighbors_.resize(out->owned_pos_offsets_[n]);
  out->owned_neg_neighbors_.resize(out->owned_neg_offsets_[n]);

  std::vector<uint64_t> pos_cursor(out->owned_pos_offsets_.begin(),
                                   out->owned_pos_offsets_.end() - 1);
  std::vector<uint64_t> neg_cursor(out->owned_neg_offsets_.begin(),
                                   out->owned_neg_offsets_.end() - 1);
  for (const PendingEdge& e : unique) {
    if (e.sign == Sign::kPositive) {
      out->owned_pos_neighbors_[pos_cursor[e.u]++] = e.v;
      out->owned_pos_neighbors_[pos_cursor[e.v]++] = e.u;
    } else {
      out->owned_neg_neighbors_[neg_cursor[e.u]++] = e.v;
      out->owned_neg_neighbors_[neg_cursor[e.v]++] = e.u;
    }
  }
  // `unique` is sorted by (u, v), which makes each vertex's "u side"
  // insertions sorted, but the "v side" insertions are also ascending in u,
  // interleaved; sort each adjacency range to guarantee order.
  for (VertexId v = 0; v < n; ++v) {
    std::sort(out->owned_pos_neighbors_.begin() +
                  static_cast<long>(out->owned_pos_offsets_[v]),
              out->owned_pos_neighbors_.begin() +
                  static_cast<long>(out->owned_pos_offsets_[v + 1]));
    std::sort(out->owned_neg_neighbors_.begin() +
                  static_cast<long>(out->owned_neg_offsets_[v]),
              out->owned_neg_neighbors_.begin() +
                  static_cast<long>(out->owned_neg_offsets_[v + 1]));
  }
  out->payload_.reset();
  out->mapped_bytes_ = 0;
  out->has_fingerprint_hint_ = false;
  out->BindOwnedViews();
  out->ResetIndex();
  return true;
}

SignedGraph SignedGraphBuilder::Build() && {
  SignedGraph graph;
  MBC_CHECK(Finalize(&graph))
      << "edge present with both signs; E+ and E- must be disjoint";
  return graph;
}

Result<SignedGraph> SignedGraphBuilder::BuildValidated() && {
  SignedGraph graph;
  if (!Finalize(&graph)) {
    return Status::Corruption(
        "edge present with both signs; E+ and E- must be disjoint");
  }
  return graph;
}

}  // namespace mbc

// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/dichromatic_graph.h"

#include "src/common/logging.h"

namespace mbc {

void DichromaticGraph::Reset(uint32_t num_vertices) {
  num_vertices_ = num_vertices;
  if (adjacency_.size() < num_vertices) {
    adjacency_.resize(num_vertices);
    adj_left_.resize(num_vertices);
    adj_right_.resize(num_vertices);
  }
  for (uint32_t v = 0; v < num_vertices; ++v) {
    adjacency_[v].Reshape(num_vertices);
    adj_left_[v].Reshape(num_vertices);
    adj_right_[v].Reshape(num_vertices);
  }
  left_mask_.Reshape(num_vertices);
}

void DichromaticGraph::SetSide(uint32_t v, Side side) {
  MBC_DCHECK_LT(v, NumVertices());
  const bool is_left = side == Side::kLeft;
  if (left_mask_.Test(v) == is_left) return;
  if (is_left) {
    left_mask_.Set(v);
  } else {
    left_mask_.Reset(v);
  }
  // Keep the split adjacency bitmap consistent: v moved sides, so v's bit
  // migrates between every neighbor's L-row and R-row. The builder labels
  // vertices before adding edges, making this loop empty on the hot path;
  // it only does work when a caller relabels an already-connected vertex.
  adjacency_[v].ForEach([&](size_t u) {
    if (is_left) {
      adj_right_[u].Reset(v);
      adj_left_[u].Set(v);
    } else {
      adj_left_[u].Reset(v);
      adj_right_[u].Set(v);
    }
  });
}

uint64_t DichromaticGraph::EdgesWithin(const Bitset& within) const {
  uint64_t twice = 0;
  within.ForEach([this, &within, &twice](size_t v) {
    twice += adjacency_[v].CountAnd(within);
  });
  return twice / 2;
}

Bitset DichromaticGraph::AllVertices() const {
  Bitset all(NumVertices());
  all.SetAll();
  return all;
}

size_t DichromaticGraph::MemoryBytes() const {
  size_t bytes = left_mask_.AllocatedBytes();
  for (const Bitset& row : adjacency_) bytes += row.AllocatedBytes();
  for (const Bitset& row : adj_left_) bytes += row.AllocatedBytes();
  for (const Bitset& row : adj_right_) bytes += row.AllocatedBytes();
  return bytes;
}

}  // namespace mbc

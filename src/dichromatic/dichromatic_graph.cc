// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/dichromatic_graph.h"

#include "src/common/logging.h"

namespace mbc {

void DichromaticGraph::Reset(uint32_t num_vertices) {
  num_vertices_ = num_vertices;
  if (adjacency_.size() < num_vertices) adjacency_.resize(num_vertices);
  for (uint32_t v = 0; v < num_vertices; ++v) {
    adjacency_[v].Reshape(num_vertices);
  }
  left_mask_.Reshape(num_vertices);
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
  return bytes;
}

}  // namespace mbc

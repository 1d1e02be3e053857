// Copyright 2026 The balanced-clique Authors.
//
// Dichromatic graphs (Problem 3 of the paper): unsigned graphs whose
// vertices are partitioned into L-vertices and R-vertices. Dichromatic
// networks g_u have at most degeneracy(G)+1 vertices, so adjacency is stored
// as dense bitset rows; the MDC/DCC branch-and-bound solvers pass candidate
// sets down as bitsets and never copy the graph.
//
// Each vertex stores one adjacency row, k bits; the sides are one more
// k-bit mask. A side degree within a candidate set is one fused
// three-operand popcount, AdjacencyOf(v).CountAndAnd(LeftMask(), within).
#ifndef MBC_DICHROMATIC_DICHROMATIC_GRAPH_H_
#define MBC_DICHROMATIC_DICHROMATIC_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/types.h"

namespace mbc {

/// Side label of a dichromatic-graph vertex.
enum class Side : uint8_t { kLeft = 0, kRight = 1 };

/// Dense unsigned graph with L/R vertex labels and bitset adjacency.
class DichromaticGraph {
 public:
  DichromaticGraph() = default;
  explicit DichromaticGraph(uint32_t num_vertices) { Reset(num_vertices); }

  /// Re-dimensions to `num_vertices` isolated R-vertices, reusing the
  /// adjacency rows of previous incarnations. Rows beyond num_vertices stay
  /// allocated (the reuse contract of DichromaticNetworkBuilder::BuildInto:
  /// storage grows to the high-water network size, then refills are
  /// allocation-free).
  void Reset(uint32_t num_vertices);

  uint32_t NumVertices() const { return num_vertices_; }

  void SetSide(uint32_t v, Side side) {
    MBC_DCHECK_LT(v, NumVertices());
    if (side == Side::kLeft) {
      left_mask_.Set(v);
    } else {
      left_mask_.Reset(v);
    }
  }
  Side GetSide(uint32_t v) const {
    return left_mask_.Test(v) ? Side::kLeft : Side::kRight;
  }
  bool IsLeft(uint32_t v) const { return left_mask_.Test(v); }

  /// Adds undirected edge {a, b}. Precondition: a != b. Inline: the
  /// network builder calls it once per kept edge with `a` fixed for a run
  /// of calls.
  void AddEdge(uint32_t a, uint32_t b) {
    MBC_DCHECK(a != b);
    adjacency_[a].Set(b);
    adjacency_[b].Set(a);
  }
  bool HasEdge(uint32_t a, uint32_t b) const {
    return adjacency_[a].Test(b);
  }

  const Bitset& AdjacencyOf(uint32_t v) const { return adjacency_[v]; }
  /// Bitset of L-vertices (capacity == NumVertices()).
  const Bitset& LeftMask() const { return left_mask_; }

  /// Degree of v restricted to `within`.
  uint32_t DegreeWithin(uint32_t v, const Bitset& within) const {
    return static_cast<uint32_t>(adjacency_[v].CountAnd(within));
  }

  /// Number of edges in the subgraph induced by `within`.
  uint64_t EdgesWithin(const Bitset& within) const;

  /// A full bitset over the vertices (convenience).
  Bitset AllVertices() const;

  size_t MemoryBytes() const;

 private:
  // Rows [0, num_vertices_) are live; the tail is retained capacity.
  std::vector<Bitset> adjacency_;
  Bitset left_mask_;
  uint32_t num_vertices_ = 0;
};

}  // namespace mbc

#endif  // MBC_DICHROMATIC_DICHROMATIC_GRAPH_H_

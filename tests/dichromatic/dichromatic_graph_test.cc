// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/dichromatic_graph.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"

namespace mbc {
namespace {

TEST(DichromaticGraphTest, SidesAndEdges) {
  DichromaticGraph graph(5);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kLeft);
  graph.SetSide(2, Side::kRight);
  graph.SetSide(3, Side::kRight);
  graph.SetSide(4, Side::kRight);
  EXPECT_TRUE(graph.IsLeft(0));
  EXPECT_FALSE(graph.IsLeft(2));
  EXPECT_EQ(graph.GetSide(1), Side::kLeft);
  EXPECT_EQ(graph.GetSide(4), Side::kRight);
  EXPECT_EQ(graph.LeftMask().Count(), 2u);

  graph.AddEdge(0, 2);
  graph.AddEdge(0, 1);
  EXPECT_TRUE(graph.HasEdge(0, 2));
  EXPECT_TRUE(graph.HasEdge(2, 0));
  EXPECT_FALSE(graph.HasEdge(1, 2));
  EXPECT_EQ(graph.AdjacencyOf(0).Count(), 2u);
}

TEST(DichromaticGraphTest, SideCanBeReassigned) {
  DichromaticGraph graph(2);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(0, Side::kRight);
  EXPECT_FALSE(graph.IsLeft(0));
}

TEST(DichromaticGraphTest, DegreeWithin) {
  DichromaticGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(0, 3);
  Bitset within(4);
  within.Set(1);
  within.Set(3);
  EXPECT_EQ(graph.DegreeWithin(0, within), 2u);
  within.Reset(3);
  EXPECT_EQ(graph.DegreeWithin(0, within), 1u);
}

TEST(DichromaticGraphTest, EdgesWithin) {
  DichromaticGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 3);
  Bitset subset(4);
  subset.Set(0);
  subset.Set(1);
  subset.Set(2);
  EXPECT_EQ(graph.EdgesWithin(subset), 2u);
  EXPECT_EQ(graph.EdgesWithin(graph.AllVertices()), 3u);
}

TEST(DichromaticGraphTest, AllVertices) {
  DichromaticGraph graph(7);
  EXPECT_EQ(graph.AllVertices().Count(), 7u);
}

TEST(DichromaticGraphTest, MemoryBytesNonZero) {
  DichromaticGraph graph(100);
  EXPECT_GT(graph.MemoryBytes(), 0u);
}

// One adjacency row per vertex plus the side mask: 100 vertices take
// 101 rows of two words each.
TEST(DichromaticGraphTest, MemoryBytesIsOneRowPerVertex) {
  DichromaticGraph graph(100);
  const size_t row_bytes = 2 * sizeof(uint64_t);
  EXPECT_GE(graph.MemoryBytes(), 101 * row_bytes);
  EXPECT_LT(graph.MemoryBytes(), 2 * 101 * row_bytes);
}

/// Random sides and edges on `k` vertices, with the edge list as a model.
DichromaticGraph RandomDichromatic(uint32_t k, double density, uint64_t seed,
                                   std::vector<std::vector<bool>>* adjacent,
                                   std::vector<bool>* left) {
  Rng rng(seed);
  DichromaticGraph graph(k);
  left->assign(k, false);
  adjacent->assign(k, std::vector<bool>(k, false));
  for (uint32_t v = 0; v < k; ++v) {
    (*left)[v] = rng.NextBounded(2) == 0;
    graph.SetSide(v, (*left)[v] ? Side::kLeft : Side::kRight);
  }
  for (uint32_t a = 0; a < k; ++a) {
    for (uint32_t b = a + 1; b < k; ++b) {
      if (rng.NextDouble() < density) {
        graph.AddEdge(a, b);
        (*adjacent)[a][b] = (*adjacent)[b][a] = true;
      }
    }
  }
  return graph;
}

// A side degree within a set is AdjacencyOf(v).CountAndAnd(LeftMask(), set)
// for L-neighbors and the rest of the within-set degree for R-neighbors.
TEST(DichromaticGraphTest, SideDegreeByLeftMaskMatchesModel) {
  for (uint32_t k : {5u, 64u, 130u, 300u}) {
    std::vector<std::vector<bool>> adjacent;
    std::vector<bool> left;
    const DichromaticGraph graph = RandomDichromatic(k, 0.3, k, &adjacent,
                                                     &left);
    Rng rng(k + 1);
    for (int trial = 0; trial < 4; ++trial) {
      Bitset within(k);
      for (uint32_t v = 0; v < k; ++v) {
        if (trial == 0 || rng.NextBounded(3) != 0) within.Set(v);
      }
      for (uint32_t v = 0; v < k; ++v) {
        size_t model_left = 0;
        size_t model_right = 0;
        for (uint32_t w = 0; w < k; ++w) {
          if (!adjacent[v][w] || !within.Test(w)) continue;
          ++(left[w] ? model_left : model_right);
        }
        const Bitset& row = graph.AdjacencyOf(v);
        const size_t dl = row.CountAndAnd(graph.LeftMask(), within);
        EXPECT_EQ(dl, model_left) << "k=" << k << " v=" << v;
        EXPECT_EQ(graph.DegreeWithin(v, within) - dl, model_right)
            << "k=" << k << " v=" << v;
      }
    }
  }
}

// Relabelling a connected vertex moves only its bit of the side mask: the
// rows are untouched and the side degrees of its neighbors follow.
TEST(DichromaticGraphTest, SideReassignmentKeepsMaskAndRowsConsistent) {
  DichromaticGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  const Bitset all = graph.AllVertices();
  // All vertices start as R-vertices.
  EXPECT_TRUE(graph.LeftMask().None());
  EXPECT_EQ(graph.AdjacencyOf(0).CountAndAnd(graph.LeftMask(), all), 0u);

  graph.SetSide(1, Side::kLeft);
  EXPECT_EQ(graph.LeftMask().ToVector(), (std::vector<uint32_t>{1}));
  EXPECT_EQ(graph.AdjacencyOf(0).CountAndAnd(graph.LeftMask(), all), 1u);
  EXPECT_EQ(graph.AdjacencyOf(2).CountAndAnd(graph.LeftMask(), all), 1u);
  EXPECT_EQ(graph.AdjacencyOf(1).ToVector(), (std::vector<uint32_t>{0, 2}));

  graph.SetSide(1, Side::kRight);
  EXPECT_TRUE(graph.LeftMask().None());
  EXPECT_EQ(graph.AdjacencyOf(0).CountAndAnd(graph.LeftMask(), all), 0u);
  // Redundant relabel is a no-op.
  graph.SetSide(1, Side::kRight);
  EXPECT_TRUE(graph.LeftMask().None());
  EXPECT_EQ(graph.AdjacencyOf(1).ToVector(), (std::vector<uint32_t>{0, 2}));
}

// Reset must clear the retained rows and the side mask (the BuildInto
// refill contract), also when shrinking and growing back.
TEST(DichromaticGraphTest, ResetClearsRetainedRows) {
  DichromaticGraph graph(5);
  graph.SetSide(1, Side::kLeft);
  graph.AddEdge(0, 1);
  graph.AddEdge(3, 4);
  graph.Reset(5);
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.LeftMask().None());
  for (uint32_t v = 0; v < 5; ++v) EXPECT_TRUE(graph.AdjacencyOf(v).None());

  graph.AddEdge(3, 4);
  graph.Reset(2);
  graph.Reset(5);
  EXPECT_FALSE(graph.HasEdge(3, 4));
  EXPECT_TRUE(graph.AdjacencyOf(4).None());
}

}  // namespace
}  // namespace mbc

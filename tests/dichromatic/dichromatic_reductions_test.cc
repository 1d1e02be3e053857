// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/reductions.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"

namespace mbc {
namespace {

// Triangle {0,1,2} plus a pendant 3 attached to 2.
DichromaticGraph TriangleWithTail() {
  DichromaticGraph graph(4);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kLeft);
  graph.SetSide(2, Side::kRight);
  graph.SetSide(3, Side::kRight);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(0, 2);
  graph.AddEdge(2, 3);
  return graph;
}

TEST(KCoreWithinTest, PeelsPendants) {
  const DichromaticGraph graph = TriangleWithTail();
  const Bitset core = KCoreWithin(graph, graph.AllVertices(), 2);
  EXPECT_EQ(core.Count(), 3u);
  EXPECT_TRUE(core.Test(0));
  EXPECT_TRUE(core.Test(1));
  EXPECT_TRUE(core.Test(2));
  EXPECT_FALSE(core.Test(3));
}

TEST(KCoreWithinTest, RespectsCandidateSubset) {
  const DichromaticGraph graph = TriangleWithTail();
  Bitset candidates(4);
  candidates.Set(0);
  candidates.Set(1);  // only the edge (0,1) survives in the induced graph
  const Bitset core = KCoreWithin(graph, candidates, 1);
  EXPECT_EQ(core.Count(), 2u);
  const Bitset empty = KCoreWithin(graph, candidates, 2);
  EXPECT_TRUE(empty.None());
}

TEST(KCoreWithinTest, ZeroKeepsEverything) {
  const DichromaticGraph graph = TriangleWithTail();
  EXPECT_EQ(KCoreWithin(graph, graph.AllVertices(), 0).Count(), 4u);
}

// A (2,2)-biclique-with-sides example for the two-sided core.
TEST(TwoSidedCoreTest, KeepsBalancedCliqueKernel) {
  // L = {0,1}, R = {2,3}; complete; plus a weakly attached L vertex 4.
  DichromaticGraph graph(5);
  for (uint32_t v : {0u, 1u, 4u}) graph.SetSide(v, Side::kLeft);
  for (uint32_t v : {2u, 3u}) graph.SetSide(v, Side::kRight);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = a + 1; b < 4; ++b) graph.AddEdge(a, b);
  }
  graph.AddEdge(4, 0);  // vertex 4 sees one L vertex, no R vertex

  // (τ_L, τ_R) = (2, 2): an L vertex needs 1 L-neighbor and 2 R-neighbors.
  const Bitset core =
      TwoSidedCoreWithin(graph, graph.AllVertices(), 2, 2);
  EXPECT_EQ(core.Count(), 4u);
  EXPECT_FALSE(core.Test(4));
}

TEST(TwoSidedCoreTest, CascadesAcrossSides) {
  // Path L0 - R1 - L2: (1,1)-core requires every L vertex to have an
  // R-neighbor and vice versa; removing one endpoint cascades.
  DichromaticGraph graph(3);
  graph.SetSide(0, Side::kLeft);
  graph.SetSide(1, Side::kRight);
  graph.SetSide(2, Side::kLeft);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  // (τ_L, τ_R) = (2, 1): R vertex 1 needs 2 L-neighbors (has 2), L vertices
  // need 1 L-neighbor (τ_L - 1 = 1) and 1 R-neighbor. L vertices have no
  // L-neighbors -> both drop -> vertex 1 drops.
  const Bitset core = TwoSidedCoreWithin(graph, graph.AllVertices(), 2, 1);
  EXPECT_TRUE(core.None());
}

TEST(TwoSidedCoreTest, ZeroThresholdsKeepAll) {
  const DichromaticGraph graph = TriangleWithTail();
  EXPECT_EQ(TwoSidedCoreWithin(graph, graph.AllVertices(), 0, 0).Count(), 4u);
}

TEST(TwoSidedCoreTest, NegativeThresholdsClampToZero) {
  const DichromaticGraph graph = TriangleWithTail();
  EXPECT_EQ(TwoSidedCoreWithin(graph, graph.AllVertices(), -3, -1).Count(),
            4u);
}

// Any clique C with |C ∩ L| >= τL and |C ∩ R| >= τR survives in the
// (τL, τR)-core (the motivation in Section IV-C).
TEST(TwoSidedCoreTest, PreservesQualifyingCliques) {
  // Build L-clique {0,1,2} fully joined to R-clique {3,4}; plus noise.
  DichromaticGraph graph(8);
  for (uint32_t v = 0; v < 3; ++v) graph.SetSide(v, Side::kLeft);
  for (uint32_t v = 3; v < 5; ++v) graph.SetSide(v, Side::kRight);
  for (uint32_t v = 5; v < 8; ++v) graph.SetSide(v, Side::kRight);
  for (uint32_t a = 0; a < 5; ++a) {
    for (uint32_t b = a + 1; b < 5; ++b) graph.AddEdge(a, b);
  }
  graph.AddEdge(5, 0);
  graph.AddEdge(6, 7);
  const Bitset core = TwoSidedCoreWithin(graph, graph.AllVertices(), 3, 2);
  for (uint32_t v = 0; v < 5; ++v) EXPECT_TRUE(core.Test(v)) << v;
  EXPECT_FALSE(core.Test(5));
  EXPECT_FALSE(core.Test(6));
}

/// The (τ_L, τ_R)-core by definition: repeatedly drop any vertex whose
/// side degrees, counted edge by edge from a model, fall short.
std::vector<bool> NaiveTwoSidedCore(
    const std::vector<std::vector<bool>>& adjacent,
    const std::vector<bool>& left, std::vector<bool> alive, int32_t tau_l,
    int32_t tau_r) {
  const size_t k = adjacent.size();
  const auto need = [](int32_t t) { return t > 0 ? t : 0; };
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t v = 0; v < k; ++v) {
      if (!alive[v]) continue;
      int32_t dl = 0;
      int32_t dr = 0;
      for (size_t w = 0; w < k; ++w) {
        if (alive[w] && adjacent[v][w]) ++(left[w] ? dl : dr);
      }
      const int32_t need_l = need(left[v] ? tau_l - 1 : tau_l);
      const int32_t need_r = need(left[v] ? tau_r : tau_r - 1);
      if (dl < need_l || dr < need_r) {
        alive[v] = false;
        changed = true;
      }
    }
  }
  return alive;
}

// The peel reads each side degree from one row, the side mask and the
// alive set; it must agree with the naive fixpoint, and the optional
// degrees table must hold the survivors' total degrees within the core.
TEST(TwoSidedCoreTest, InPlaceMatchesNaivePeel) {
  Rng rng(2026);
  std::vector<uint32_t> pending;
  std::vector<uint32_t> degrees;
  for (int trial = 0; trial < 60; ++trial) {
    const uint32_t k = 2 + static_cast<uint32_t>(rng.NextBounded(150));
    const double density = 0.1 + 0.8 * rng.NextDouble();
    DichromaticGraph graph(k);
    std::vector<bool> left(k);
    std::vector<std::vector<bool>> adjacent(k, std::vector<bool>(k, false));
    for (uint32_t v = 0; v < k; ++v) {
      left[v] = rng.NextBernoulli(0.5);
      graph.SetSide(v, left[v] ? Side::kLeft : Side::kRight);
    }
    for (uint32_t a = 0; a < k; ++a) {
      for (uint32_t b = a + 1; b < k; ++b) {
        if (!rng.NextBernoulli(density)) continue;
        graph.AddEdge(a, b);
        adjacent[a][b] = adjacent[b][a] = true;
      }
    }
    Bitset candidates(k);
    std::vector<bool> model_alive(k, false);
    for (uint32_t v = 0; v < k; ++v) {
      if (rng.NextBounded(5) == 0) continue;
      candidates.Set(v);
      model_alive[v] = true;
    }
    const int32_t tau_l = static_cast<int32_t>(rng.NextBounded(8)) - 1;
    const int32_t tau_r = static_cast<int32_t>(rng.NextBounded(8)) - 1;
    const std::vector<bool> expected =
        NaiveTwoSidedCore(adjacent, left, model_alive, tau_l, tau_r);
    for (bool with_degrees : {false, true}) {
      Bitset alive = candidates;
      size_t alive_count = alive.Count();
      degrees.assign(k, 0);
      TwoSidedCoreWithinInPlace(graph, &alive, tau_l, tau_r, &pending,
                                &alive_count,
                                with_degrees ? &degrees : nullptr);
      const std::string where = "trial=" + std::to_string(trial) +
                                " degrees=" + std::to_string(with_degrees);
      ASSERT_EQ(alive_count, alive.Count()) << where;
      for (uint32_t v = 0; v < k; ++v) {
        ASSERT_EQ(alive.Test(v), expected[v]) << where << " v=" << v;
        if (with_degrees && expected[v]) {
          EXPECT_EQ(degrees[v], graph.DegreeWithin(v, alive))
              << where << " v=" << v;
        }
      }
    }
  }
}

TEST(ColoringBoundWithinTest, CliqueNeedsItsSize) {
  DichromaticGraph graph(5);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = a + 1; b < 4; ++b) graph.AddEdge(a, b);
  }
  EXPECT_EQ(ColoringBoundWithin(graph, graph.AllVertices()), 4u);
  Bitset three(5);
  three.Set(0);
  three.Set(1);
  three.Set(2);
  EXPECT_EQ(ColoringBoundWithin(graph, three), 3u);
}

TEST(ColoringBoundWithinTest, BoundDominatesCliqueSizeRandomized) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    DichromaticGraph graph(24);
    for (uint32_t a = 0; a < 24; ++a) {
      for (uint32_t b = a + 1; b < 24; ++b) {
        if (rng.NextBernoulli(0.35)) graph.AddEdge(a, b);
      }
    }
    // Find max clique by simple recursion.
    uint32_t best = 0;
    const Bitset all = graph.AllVertices();
    struct Search {
      const DichromaticGraph& g;
      uint32_t* best;
      void Go(Bitset cand, uint32_t size) {
        *best = std::max(*best, size);
        for (size_t v = cand.FindFirst(); v != Bitset::npos;
             v = cand.FindNext(v)) {
          cand.Reset(v);
          Go(g.AdjacencyOf(static_cast<uint32_t>(v)) & cand, size + 1);
        }
      }
    };
    Search search{graph, &best};
    search.Go(all, 0);
    EXPECT_GE(ColoringBoundWithin(graph, all), best);
  }
}

TEST(ColoringBoundWithinTest, EmptyCandidatesGiveZero) {
  DichromaticGraph graph(3);
  EXPECT_EQ(ColoringBoundWithin(graph, Bitset(3)), 0u);
}

}  // namespace
}  // namespace mbc

// Copyright 2026 The balanced-clique Authors.
#include "src/core/reductions.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/brute_force.h"
#include "src/core/verify.h"
#include "src/graph/binary_io.h"
#include "src/graph/cores.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::FromText;
using testing_util::RandomSignedGraph;

TEST(VertexReductionTest, TauZeroKeepsEverything) {
  const SignedGraph graph = Figure2Graph();
  const std::vector<uint8_t> alive = VertexReductionMask(graph, 0);
  EXPECT_EQ(std::count(alive.begin(), alive.end(), 1),
            static_cast<long>(graph.NumVertices()));
}

TEST(VertexReductionTest, DegreeThresholds) {
  // Vertex 0: d+=1, d-=1. τ=1 requires d+ >= 0, d- >= 1 -> survives.
  // τ=2 requires d+ >= 1 and d- >= 2 -> 0 has d-=1, removed.
  const SignedGraph graph = FromText("0 1 1\n0 2 -1\n1 2 -1\n1 3 1\n2 3 1\n");
  const std::vector<uint8_t> tau1 = VertexReductionMask(graph, 1);
  EXPECT_TRUE(tau1[0]);
  const std::vector<uint8_t> tau2 = VertexReductionMask(graph, 2);
  EXPECT_FALSE(tau2[0]);
}

TEST(VertexReductionTest, CascadingRemoval) {
  // Chain where removing the endpoint cascades down.
  const SignedGraph graph = Figure2Graph();
  // τ=3: every vertex needs d+ >= 2 and d- >= 3.
  const std::vector<uint8_t> alive = VertexReductionMask(graph, 3);
  // v1, v2 (ids 0, 1) have d+ = 1 -> removed. Their removal lowers the
  // negative degree of v3, v4 to 3 (from 5); the core {2..7} survives.
  EXPECT_FALSE(alive[0]);
  EXPECT_FALSE(alive[1]);
  for (VertexId v = 2; v <= 7; ++v) EXPECT_TRUE(alive[v]) << v;
}

TEST(VertexReductionTest, PreservesQualifyingCliques) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const SignedGraph graph = RandomSignedGraph(18, 70, 0.45, seed);
    for (uint32_t tau : {1u, 2u}) {
      const BalancedClique best = BruteForceMaxBalancedClique(graph, tau);
      if (best.empty()) continue;
      const std::vector<uint8_t> alive = VertexReductionMask(graph, tau);
      for (VertexId v : best.AllVertices()) {
        EXPECT_TRUE(alive[v]) << "seed=" << seed << " tau=" << tau;
      }
    }
  }
}

TEST(ApplyVertexReductionTest, MappingIsConsistent) {
  const SignedGraph graph = Figure2Graph();
  const ReducedSignedGraph reduced = ApplyVertexReduction(graph, 3);
  EXPECT_EQ(reduced.graph.NumVertices(), 6u);
  // Every edge of the reduced graph exists with the same sign in G.
  reduced.graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    EXPECT_EQ(graph.EdgeSign(reduced.to_original[u], reduced.to_original[v]),
              sign);
  });
}

// At τ = 0 every vertex has pn ≥ 0: R_0 is a copy of the input with the
// identity map, sharing its CSR content and its index; a mapped input's
// copy aliases the same mapping instead of copying it to the heap.
TEST(ApplyVertexReductionTest, TauZeroIsACopyOfTheInput) {
  const SignedGraph owned = RandomSignedGraph(40, 200, 0.5, 9);
  const std::string path =
      ::testing::TempDir() + "/core_reductions_tau_zero.mbcg";
  ASSERT_TRUE(WriteSignedGraphBinary(owned, path).ok());
  Result<SignedGraph> mapped = MmapSignedGraphBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const SignedGraph& aliased = mapped.value();
  ASSERT_TRUE(aliased.IsMapped());

  for (const SignedGraph* graph : {&owned, &aliased}) {
    const ReducedSignedGraph reduced = ApplyVertexReduction(*graph, 0);
    EXPECT_EQ(&reduced.graph.Index(), &graph->Index());
    EXPECT_EQ(reduced.graph.IsMapped(), graph->IsMapped());
    EXPECT_TRUE(std::ranges::equal(reduced.graph.PosOffsets(),
                                   graph->PosOffsets()));
    EXPECT_TRUE(std::ranges::equal(reduced.graph.NegOffsets(),
                                   graph->NegOffsets()));
    EXPECT_TRUE(std::ranges::equal(reduced.graph.PosNeighborEntries(),
                                   graph->PosNeighborEntries()));
    EXPECT_TRUE(std::ranges::equal(reduced.graph.NegNeighborEntries(),
                                   graph->NegNeighborEntries()));
    ASSERT_EQ(reduced.to_original.size(), graph->NumVertices());
    for (VertexId v = 0; v < graph->NumVertices(); ++v) {
      EXPECT_EQ(reduced.to_original[v], v);
    }
    if (graph->IsMapped()) {
      EXPECT_EQ(reduced.graph.PosNeighborEntries().data(),
                graph->PosNeighborEntries().data());
      EXPECT_EQ(reduced.graph.NegNeighborEntries().data(),
                graph->NegNeighborEntries().data());
    }
  }
  std::remove(path.c_str());
}

TEST(ApplyCoreReductionTest, KeepsTheCoreInInputIds) {
  const SignedGraph graph = RandomSignedGraph(120, 900, 0.4, 17);
  const ReducedSignedGraph reduced = ApplyVertexReduction(graph, 2);
  for (uint32_t k : {0u, 5u, 12u, 1000u}) {
    const ReducedSignedGraph cored = ApplyCoreReduction(reduced, k);
    // The survivors are exactly the k-core of reduced.graph, in ascending
    // order, named by their ids in `graph`.
    const std::vector<uint8_t> alive = KCoreMask(reduced.graph, k);
    std::vector<VertexId> expected;
    for (VertexId v = 0; v < reduced.graph.NumVertices(); ++v) {
      if (alive[v]) expected.push_back(reduced.to_original[v]);
    }
    EXPECT_EQ(cored.to_original, expected) << "k=" << k;
    cored.graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
      EXPECT_EQ(graph.EdgeSign(cored.to_original[u], cored.to_original[v]),
                sign)
          << "k=" << k;
    });
    // ... and every edge among them survives.
    uint64_t edges = 0;
    graph.ForEachEdge([&](VertexId u, VertexId v, Sign) {
      edges += std::binary_search(expected.begin(), expected.end(), u) &&
               std::binary_search(expected.begin(), expected.end(), v);
    });
    EXPECT_EQ(cored.graph.NumEdges(), edges) << "k=" << k;
  }
}

TEST(EdgeReductionTest, TauBelowTwoIsIdentity) {
  const SignedGraph graph = Figure2Graph();
  const SignedGraph reduced = EdgeReduction(graph, 1);
  EXPECT_EQ(reduced.NumEdges(), graph.NumEdges());
}

TEST(EdgeReductionTest, RemovesTriangleDeficientEdges) {
  // A single positive edge with no triangles cannot be in any τ=2 clique.
  const SignedGraph graph = FromText("0 1 1\n2 3 -1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 0u);
}

TEST(EdgeReductionTest, KeepsPerfectBalancedClique) {
  // Balanced clique with sides (2,2): every edge meets the τ=2 triangle
  // conditions exactly.
  const SignedGraph graph = FromText(
      "0 1 1\n2 3 1\n0 2 -1\n0 3 -1\n1 2 -1\n1 3 -1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 6u);
}

TEST(EdgeReductionTest, FixpointCascades) {
  // Balanced (2,2) clique plus a pendant positive edge 0-4 supported by
  // no triangles: removing it must not disturb the clique.
  const SignedGraph graph = FromText(
      "0 1 1\n2 3 1\n0 2 -1\n0 3 -1\n1 2 -1\n1 3 -1\n0 4 1\n");
  const SignedGraph reduced = EdgeReduction(graph, 2);
  EXPECT_EQ(reduced.NumEdges(), 6u);
  EXPECT_EQ(reduced.EdgeSign(0, 4), std::nullopt);
}

TEST(EdgeReductionTest, PreservesQualifyingCliquesRandomized) {
  for (uint64_t seed = 11; seed <= 15; ++seed) {
    const SignedGraph graph = RandomSignedGraph(16, 60, 0.45, seed);
    for (uint32_t tau : {2u, 3u}) {
      const BalancedClique best = BruteForceMaxBalancedClique(graph, tau);
      if (best.empty()) continue;
      const SignedGraph reduced = EdgeReduction(graph, tau);
      EXPECT_TRUE(IsBalancedClique(reduced, best))
          << "seed=" << seed << " tau=" << tau;
    }
  }
}

}  // namespace
}  // namespace mbc

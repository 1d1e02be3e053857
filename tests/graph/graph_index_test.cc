// Copyright 2026 The balanced-clique Authors.
//
// GraphIndex: the per-graph polar-core numbers and degeneracy order agree
// with PDecompose / DegeneracyDecompose, ApplyVertexReduction read from
// the index equals the VertexReductionMask peel, the reduced graph's
// seeded pn equals its own PDecompose (the polar-core lemma), and the
// index is shared by copies only.
#include "src/graph/graph_index.h"

#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/core/reductions.h"
#include "src/datasets/generators.h"
#include "src/graph/cores.h"
#include "src/graph/signed_graph_builder.h"
#include "src/pf/pdecompose.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::RandomSignedGraph;

struct NamedGraph {
  std::string name;
  SignedGraph graph;
};

std::vector<NamedGraph> Graphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"figure2", Figure2Graph()});
  graphs.push_back({"random", RandomSignedGraph(200, 1500, 0.4, 7)});
  {
    CommunityGraphOptions options;
    options.num_vertices = 300;
    options.num_edges = 6000;
    options.num_communities = 4;
    options.negative_ratio = 0.35;
    options.seed = 11;
    graphs.push_back({"community", GenerateCommunitySignedGraph(options)});
    graphs.push_back(
        {"planted",
         PlantBalancedCliques(GenerateCommunitySignedGraph(options),
                              {{7, 7}, {5, 6}}, 13)});
  }
  {
    BsclOptions options;
    options.num_vertices = 2000;
    options.num_edges = 12000;
    options.seed = 3;
    graphs.push_back({"hub_bscl", GenerateBsclSignedGraph(options)});
  }
  graphs.push_back({"empty", SignedGraph()});
  graphs.push_back({"empty_built", SignedGraphBuilder(0).Build()});
  {
    // Vertices 0, 3 and 5 are isolated.
    SignedGraphBuilder builder(6);
    builder.AddEdge(1, 2, Sign::kPositive);
    builder.AddEdge(2, 4, Sign::kNegative);
    builder.AddEdge(1, 4, Sign::kNegative);
    graphs.push_back({"isolated", std::move(builder).Build()});
  }
  return graphs;
}

// The peel ApplyVertexReduction replaced, as the reference.
ReducedSignedGraph PeeledReduction(const SignedGraph& graph, uint32_t tau) {
  const std::vector<uint8_t> alive = VertexReductionMask(graph, tau);
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (alive[v]) keep.push_back(v);
  }
  SignedGraph::InducedResult induced = graph.InducedSubgraph(keep);
  return {std::move(induced.graph), std::move(induced.to_original)};
}

TEST(GraphIndexTest, MatchesPDecomposeAndDegeneracyDecompose) {
  for (const NamedGraph& g : Graphs()) {
    SCOPED_TRACE(g.name);
    const SignedGraph& graph = g.graph;
    const PolarDecomposition polar = PDecompose(graph);
    const PolarCoreNumbers& indexed = graph.Index().Polar(graph);
    EXPECT_EQ(indexed.pn, polar.polar_core_number);
    EXPECT_EQ(indexed.max, polar.max_polar_core);
    EXPECT_EQ(graph.Index().DegeneracyOrder(graph),
              DegeneracyDecompose(graph).order);
    // Each part is at most 4 bytes per vertex.
    EXPECT_LE(graph.Index().MemoryBytes(),
              2 * sizeof(uint32_t) * graph.NumVertices());
  }
}

TEST(GraphIndexTest, VertexReductionMatchesPeel) {
  for (const NamedGraph& g : Graphs()) {
    SCOPED_TRACE(g.name);
    const SignedGraph& graph = g.graph;
    const uint32_t max_pn = graph.Index().Polar(graph).max;
    for (uint32_t tau = 0; tau <= max_pn + 1; ++tau) {
      SCOPED_TRACE("tau=" + std::to_string(tau));
      const ReducedSignedGraph indexed = ApplyVertexReduction(graph, tau);
      const ReducedSignedGraph peeled = PeeledReduction(graph, tau);
      EXPECT_EQ(FingerprintSignedGraph(indexed.graph),
                FingerprintSignedGraph(peeled.graph));
      EXPECT_EQ(indexed.to_original, peeled.to_original);

      // The seeded polar part of R_τ is R_τ's own PDecompose.
      const PolarCoreNumbers& seeded = indexed.graph.Index().Polar(
          indexed.graph);
      const PolarDecomposition own = PDecompose(indexed.graph);
      EXPECT_EQ(seeded.pn, own.polar_core_number);
      EXPECT_EQ(seeded.max, own.max_polar_core);
    }
  }
}

TEST(GraphIndexTest, SeedingDoesNotReplaceABuiltPolarPart) {
  const SignedGraph graph = Figure2Graph();
  const PolarCoreNumbers& built = graph.Index().Polar(graph);
  const std::vector<uint32_t> want = built.pn;
  graph.Index().SeedPolar({std::vector<uint32_t>(graph.NumVertices(), 99),
                           99});
  EXPECT_EQ(graph.Index().Polar(graph).pn, want);
}

TEST(GraphIndexTest, CopiesShareTheIndex) {
  const SignedGraph graph = RandomSignedGraph(120, 700, 0.4, 5);
  const SignedGraph copy = graph;
  SignedGraph assigned;
  assigned = copy;
  EXPECT_EQ(&copy.Index(), &graph.Index());
  EXPECT_EQ(&assigned.Index(), &graph.Index());
  const PolarCoreNumbers& polar = copy.Index().Polar(copy);
  EXPECT_EQ(&graph.Index().Polar(graph), &polar);
  EXPECT_GT(graph.Index().MemoryBytes(), 0u);

  // A move carries the index along.
  const GraphIndex* before = &assigned.Index();
  const SignedGraph moved = std::move(assigned);
  EXPECT_EQ(&moved.Index(), before);
}

TEST(GraphIndexTest, DerivedGraphsStartWithoutAnIndex) {
  const SignedGraph graph = RandomSignedGraph(150, 1200, 0.4, 9);
  graph.Index().Polar(graph);
  graph.Index().DegeneracyOrder(graph);
  ASSERT_GT(graph.Index().MemoryBytes(), 0u);

  std::vector<VertexId> all(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) all[v] = v;
  const SignedGraph induced = graph.InducedSubgraph(all).graph;
  EXPECT_NE(&induced.Index(), &graph.Index());
  EXPECT_EQ(induced.Index().MemoryBytes(), 0u);

  const SignedGraph reduced = EdgeReduction(graph, 2);
  ASSERT_LT(reduced.NumEdges(), graph.NumEdges());
  EXPECT_NE(&reduced.Index(), &graph.Index());
  EXPECT_EQ(reduced.Index().MemoryBytes(), 0u);
  EXPECT_EQ(reduced.Index().Polar(reduced).pn,
            PDecompose(reduced).polar_core_number);
  EXPECT_EQ(reduced.Index().DegeneracyOrder(reduced),
            DegeneracyDecompose(reduced).order);

  // ApplyVertexReduction seeds only the polar part of its result.
  const ReducedSignedGraph r = ApplyVertexReduction(graph, 1);
  EXPECT_NE(&r.graph.Index(), &graph.Index());
  EXPECT_EQ(r.graph.Index().MemoryBytes(),
            sizeof(uint32_t) * r.graph.NumVertices());
}

// Eight threads make the first call to one fresh graph's index at the same
// moment; each part is computed once and every thread sees it.
TEST(GraphIndexConcurrencyTest, ConcurrentFirstCallsSeeOneIndex) {
  BsclOptions options;
  options.num_vertices = 3000;
  options.num_edges = 18000;
  options.seed = 5;
  const SignedGraph graph = GenerateBsclSignedGraph(options);
  const PolarDecomposition want_polar = PDecompose(graph);
  const std::vector<VertexId> want_order = DegeneracyDecompose(graph).order;

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const PolarCoreNumbers*> polar(kThreads, nullptr);
  std::vector<const std::vector<VertexId>*> order(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Half the threads ask for the order first.
      if (t % 2 == 0) {
        polar[t] = &graph.Index().Polar(graph);
        order[t] = &graph.Index().DegeneracyOrder(graph);
      } else {
        order[t] = &graph.Index().DegeneracyOrder(graph);
        polar[t] = &graph.Index().Polar(graph);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(polar[t], polar[0]);
    EXPECT_EQ(order[t], order[0]);
  }
  EXPECT_EQ(polar[0]->pn, want_polar.polar_core_number);
  EXPECT_EQ(polar[0]->max, want_polar.max_polar_core);
  EXPECT_EQ(*order[0], want_order);
  EXPECT_EQ(graph.Index().MemoryBytes(),
            2 * sizeof(uint32_t) * graph.NumVertices());
}

}  // namespace
}  // namespace mbc

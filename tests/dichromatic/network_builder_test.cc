// Copyright 2026 The balanced-clique Authors.
#include "src/dichromatic/network_builder.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bitset.h"
#include "src/common/random.h"
#include "src/datasets/families.h"
#include "src/graph/cores.h"
#include "src/pf/pdecompose.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

// Reproduces the paper's Example 1 / Figure 4: the ego-network of v0 (as
// the lowest-ranked vertex) excludes v2 and v8; it has 12 edges among v0's
// neighbors, of which exactly 6 conflicting ones are removed.
TEST(NetworkBuilderTest, PaperFigure4Example) {
  const SignedGraph graph = testing_util::Figure4Graph();
  // Rank v0 lowest; everyone else higher.
  std::vector<uint32_t> rank(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) rank[v] = v;

  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(0, rank.data());

  // Members: v0 plus its 6 neighbors (v2 and v8 excluded).
  ASSERT_EQ(net.graph.NumVertices(), 7u);
  std::vector<VertexId> members = net.to_original;
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{0, 1, 3, 4, 5, 6, 7}));

  // Edge-count bookkeeping of Example 1 (u's own edges excluded).
  EXPECT_EQ(net.ego_edges, 12u);
  EXPECT_EQ(net.dichromatic_edges, 6u);

  // Local index lookup.
  std::map<VertexId, uint32_t> local;
  for (uint32_t i = 0; i < net.to_original.size(); ++i) {
    local[net.to_original[i]] = i;
  }

  // Sides: V_L = {v0, v1, v3, v4}, V_R = {v5, v6, v7}.
  EXPECT_TRUE(net.graph.IsLeft(local[0]));
  EXPECT_TRUE(net.graph.IsLeft(local[1]));
  EXPECT_TRUE(net.graph.IsLeft(local[3]));
  EXPECT_TRUE(net.graph.IsLeft(local[4]));
  EXPECT_FALSE(net.graph.IsLeft(local[5]));
  EXPECT_FALSE(net.graph.IsLeft(local[6]));
  EXPECT_FALSE(net.graph.IsLeft(local[7]));

  // The six conflicting edges are gone...
  EXPECT_FALSE(net.graph.HasEdge(local[1], local[4]));
  EXPECT_FALSE(net.graph.HasEdge(local[1], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[3], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[4], local[5]));
  EXPECT_FALSE(net.graph.HasEdge(local[3], local[7]));
  EXPECT_FALSE(net.graph.HasEdge(local[4], local[7]));
  // ...and the six non-conflicting ones survive.
  EXPECT_TRUE(net.graph.HasEdge(local[1], local[3]));
  EXPECT_TRUE(net.graph.HasEdge(local[3], local[4]));
  EXPECT_TRUE(net.graph.HasEdge(local[6], local[7]));
  EXPECT_TRUE(net.graph.HasEdge(local[5], local[6]));
  EXPECT_TRUE(net.graph.HasEdge(local[1], local[6]));
  EXPECT_TRUE(net.graph.HasEdge(local[4], local[6]));
  // u is adjacent to every member.
  for (uint32_t i = 1; i < net.graph.NumVertices(); ++i) {
    EXPECT_TRUE(net.graph.HasEdge(0, i));
  }
}

TEST(NetworkBuilderTest, RankFilterExcludesLowerRankedNeighbors) {
  const SignedGraph graph = testing_util::Figure2Graph();
  std::vector<uint32_t> rank(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) rank[v] = v;
  DichromaticNetworkBuilder builder(graph);
  // Vertex 4 (v5): neighbors are 2, 3 (positive) and 5, 6, 7 (negative).
  // Only higher-ranked 5, 6, 7 survive the rank filter.
  const DichromaticNetwork net = builder.Build(4, rank.data());
  EXPECT_EQ(net.graph.NumVertices(), 4u);
  EXPECT_EQ(net.graph.LeftMask().Count(), 1u);  // just u
}

TEST(NetworkBuilderTest, NoRankIncludesAllNeighbors) {
  const SignedGraph graph = testing_util::Figure2Graph();
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(4);
  EXPECT_EQ(net.graph.NumVertices(), 6u);  // u + 2 positive + 3 negative
  EXPECT_EQ(net.graph.LeftMask().Count(), 3u);
}

TEST(NetworkBuilderTest, AliveFilter) {
  const SignedGraph graph = testing_util::Figure2Graph();
  std::vector<uint8_t> alive(graph.NumVertices(), 1);
  alive[5] = 0;
  alive[6] = 0;
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork net = builder.Build(4, nullptr, alive.data());
  EXPECT_EQ(net.graph.NumVertices(), 4u);  // u, 2, 3, 7
}

TEST(NetworkBuilderTest, ReusableAcrossCalls) {
  const SignedGraph graph = testing_util::Figure4Graph();
  DichromaticNetworkBuilder builder(graph);
  const DichromaticNetwork first = builder.Build(0);
  const DichromaticNetwork second = builder.Build(2);  // degree-1 vertex
  const DichromaticNetwork third = builder.Build(0);
  EXPECT_EQ(first.graph.NumVertices(), third.graph.NumVertices());
  EXPECT_EQ(first.ego_edges, third.ego_edges);
  EXPECT_NE(first.graph.NumVertices(), second.graph.NumVertices());
}

// BuildInto (the clear-and-refill path) must be indistinguishable from a
// fresh Build, including when the reused network shrinks and re-grows —
// stale adjacency rows from a larger previous network must not leak.
TEST(NetworkBuilderTest, BuildIntoMatchesFreshBuild) {
  const SignedGraph graph = testing_util::RandomSignedGraph(50, 350, 0.4, 9);
  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork reused;
  // Visit every vertex twice in opposite orders so each network is
  // refilled over both larger and smaller predecessors.
  std::vector<VertexId> visits;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) visits.push_back(u);
  for (VertexId u = graph.NumVertices(); u > 0; --u) visits.push_back(u - 1);
  for (VertexId u : visits) {
    const DichromaticNetwork fresh = builder.Build(u);
    builder.BuildInto(u, nullptr, nullptr, &reused);
    ASSERT_EQ(reused.graph.NumVertices(), fresh.graph.NumVertices())
        << "u=" << u;
    ASSERT_EQ(reused.to_original, fresh.to_original) << "u=" << u;
    ASSERT_EQ(reused.ego_edges, fresh.ego_edges) << "u=" << u;
    ASSERT_EQ(reused.dichromatic_edges, fresh.dichromatic_edges) << "u=" << u;
    const uint32_t k = fresh.graph.NumVertices();
    for (uint32_t i = 0; i < k; ++i) {
      ASSERT_EQ(reused.graph.IsLeft(i), fresh.graph.IsLeft(i)) << "u=" << u;
      for (uint32_t j = 0; j < k; ++j) {
        ASSERT_EQ(reused.graph.HasEdge(i, j), fresh.graph.HasEdge(i, j))
            << "u=" << u << " i=" << i << " j=" << j;
      }
    }
  }
}

// Every clique of the dichromatic network that contains u corresponds to a
// balanced clique of the original graph (one direction of Theorem 2).
TEST(NetworkBuilderTest, CliquesAreBalancedInOriginal) {
  const SignedGraph graph = testing_util::RandomSignedGraph(60, 400, 0.4, 21);
  DichromaticNetworkBuilder builder(graph);
  for (VertexId u = 0; u < graph.NumVertices(); u += 7) {
    const DichromaticNetwork net = builder.Build(u);
    const uint32_t k = net.graph.NumVertices();
    // Check all edges of g_u: within-side edges must be positive in G,
    // cross-side edges negative.
    for (uint32_t i = 0; i < k; ++i) {
      for (uint32_t j = i + 1; j < k; ++j) {
        if (!net.graph.HasEdge(i, j)) continue;
        const VertexId a = net.to_original[i];
        const VertexId b = net.to_original[j];
        if (net.graph.IsLeft(i) == net.graph.IsLeft(j)) {
          EXPECT_TRUE(graph.HasPositiveEdge(a, b));
        } else {
          EXPECT_TRUE(graph.HasNegativeEdge(a, b));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Out-list builds against a pairwise reference.

/// g_u built the slow way: members in the documented admission order, and
/// every member pair classified with HasPositiveEdge/HasNegativeEdge.
struct ReferenceNetwork {
  std::vector<VertexId> to_original;
  uint32_t num_left = 0;
  std::vector<std::vector<bool>> adjacent;
  uint64_t ego_edges = 0;
  uint64_t dichromatic_edges = 0;
};

ReferenceNetwork BuildReference(const SignedGraph& graph, VertexId u,
                                const uint32_t* rank, const uint8_t* alive) {
  ReferenceNetwork ref;
  ref.to_original.push_back(u);
  auto admit = [&](std::span<const VertexId> neighbors) {
    for (VertexId v : neighbors) {
      if (rank != nullptr && rank[v] <= rank[u]) continue;
      if (alive != nullptr && !alive[v]) continue;
      ref.to_original.push_back(v);
    }
  };
  admit(graph.PositiveNeighbors(u));
  ref.num_left = static_cast<uint32_t>(ref.to_original.size());
  admit(graph.NegativeNeighbors(u));
  const uint32_t k = static_cast<uint32_t>(ref.to_original.size());
  ref.adjacent.assign(k, std::vector<bool>(k, false));
  for (uint32_t i = 1; i < k; ++i) {
    ref.adjacent[0][i] = ref.adjacent[i][0] = true;
  }
  for (uint32_t i = 1; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) {
      const VertexId a = ref.to_original[i];
      const VertexId b = ref.to_original[j];
      const bool same_side = (i < ref.num_left) == (j < ref.num_left);
      bool keep = false;
      if (graph.HasPositiveEdge(a, b)) {
        ++ref.ego_edges;
        keep = same_side;
      } else if (graph.HasNegativeEdge(a, b)) {
        ++ref.ego_edges;
        keep = !same_side;
      }
      if (keep) {
        ref.adjacent[i][j] = ref.adjacent[j][i] = true;
        ++ref.dichromatic_edges;
      }
    }
  }
  return ref;
}

void ExpectMatchesReference(const DichromaticNetwork& net,
                            const ReferenceNetwork& ref,
                            const std::string& where) {
  ASSERT_EQ(net.to_original, ref.to_original) << where;
  EXPECT_EQ(net.ego_edges, ref.ego_edges) << where;
  EXPECT_EQ(net.dichromatic_edges, ref.dichromatic_edges) << where;
  const uint32_t k = static_cast<uint32_t>(ref.to_original.size());
  ASSERT_EQ(net.graph.NumVertices(), k) << where;
  const Bitset all = net.graph.AllVertices();
  for (uint32_t i = 0; i < k; ++i) {
    ASSERT_EQ(net.graph.IsLeft(i), i < ref.num_left) << where << " i=" << i;
    size_t degree = 0;
    size_t left_degree = 0;
    for (uint32_t j = 0; j < k; ++j) {
      const bool adjacent = ref.adjacent[i][j];
      const bool j_left = j < ref.num_left;
      degree += adjacent;
      left_degree += adjacent && j_left;
      ASSERT_EQ(net.graph.AdjacencyOf(i).Test(j), adjacent)
          << where << " i=" << i << " j=" << j;
    }
    // No stale bits from a larger previous network, in the row or the
    // side mask: the L-degree over all vertices matches the reference.
    ASSERT_EQ(net.graph.AdjacencyOf(i).Count(), degree) << where;
    ASSERT_EQ(
        net.graph.AdjacencyOf(i).CountAndAnd(net.graph.LeftMask(), all),
        left_degree)
        << where;
  }
}

/// A sparse random graph plus vertex 0 adjacent to every other vertex with
/// mixed signs: every g_u holds the hub.
SignedGraph HubGraph() {
  const SignedGraph base = testing_util::RandomSignedGraph(120, 500, 0.4, 5);
  SignedGraphBuilder builder(base.NumVertices());
  base.ForEachEdge(
      [&](VertexId a, VertexId b, Sign sign) { builder.AddEdge(a, b, sign); });
  for (VertexId v = 1; v < base.NumVertices(); ++v) {
    if (base.EdgeSign(0, v).has_value()) continue;
    builder.AddEdge(0, v, v % 3 == 0 ? Sign::kNegative : Sign::kPositive);
  }
  return std::move(builder).Build();
}

std::vector<std::pair<std::string, SignedGraph>> EquivalenceGraphs() {
  std::vector<std::pair<std::string, SignedGraph>> graphs;
  graphs.emplace_back(
      "bscl", GenerateFromFamily("bscl", {{"vertices", "400"},
                                          {"edges", "2400"},
                                          {"seed", "3"}})
                  .value());
  graphs.emplace_back(
      "community", GenerateFromFamily("community", {{"vertices", "150"},
                                                    {"edges", "1500"},
                                                    {"negative-ratio", "0.35"},
                                                    {"seed", "4"}})
                       .value());
  // Dense enough that out-lists pass 64 entries, so ranked networks span
  // several 64-bit adjacency words.
  graphs.emplace_back(
      "community-dense",
      GenerateFromFamily("community", {{"vertices", "300"},
                                       {"edges", "12000"},
                                       {"negative-ratio", "0.35"},
                                       {"seed", "5"}})
          .value());
  graphs.emplace_back("hub", HubGraph());
  return graphs;
}

TEST(NetworkBuilderTest, OutListBuildsMatchPairwiseReference) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    const VertexId n = graph.NumVertices();
    std::vector<uint32_t> shuffled(n);
    std::iota(shuffled.begin(), shuffled.end(), 0u);
    Rng rng(11);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const std::vector<std::pair<std::string, std::vector<uint32_t>>> ranks = {
        {"degeneracy", DegeneracyDecompose(graph).rank},
        {"polar", PDecompose(graph).rank},
        {"random", shuffled},
    };
    std::vector<uint8_t> alive(n);
    for (VertexId v = 0; v < n; ++v) alive[v] = rng.NextBernoulli(0.75);

    uint32_t max_ranked_k = 0;
    for (const auto& [rank_name, rank] : ranks) {
      const RankedOutLists out_lists(graph, rank.data());
      DichromaticNetworkBuilder shared(graph, out_lists);
      DichromaticNetworkBuilder own(graph);  // binds on its first call
      DichromaticNetwork from_shared;
      DichromaticNetwork from_own;
      for (VertexId u = 0; u < n; ++u) {
        const std::string where =
            name + "/" + rank_name + " u=" + std::to_string(u);
        const std::vector<const uint8_t*> masks = {nullptr, alive.data()};
        for (const uint8_t* mask : masks) {
          if (mask != nullptr && !mask[u]) continue;
          const std::string at = where + (mask ? " alive" : "");
          const ReferenceNetwork ranked =
              BuildReference(graph, u, rank.data(), mask);
          shared.BuildInto(u, rank.data(), mask, &from_shared);
          own.BuildInto(u, rank.data(), mask, &from_own);
          ExpectMatchesReference(from_shared, ranked, at + " shared");
          ExpectMatchesReference(from_own, ranked, at + " own");
          max_ranked_k =
              std::max(max_ranked_k, from_shared.graph.NumVertices());

          const ReferenceNetwork full =
              BuildReference(graph, u, nullptr, mask);
          own.BuildInto(u, nullptr, mask, &from_own);
          ExpectMatchesReference(from_own, full, at + " rank-less");
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
    if (name == "community-dense") {
      EXPECT_GT(max_ranked_k, 64u) << "no ranked network spans two words";
    }
  }
}

TEST(NetworkBuilderTest, OutListsStoreEachEdgeOnceAtItsLowerRankedEnd) {
  for (const auto& [name, graph] : EquivalenceGraphs()) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    const uint32_t* rank = degeneracy.rank.data();
    const RankedOutLists out_lists(graph, rank);
    EXPECT_EQ(out_lists.rank(), rank);
    EdgeCount stored = 0;
    uint32_t max_out = 0;
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (const auto& [out, all] :
           {std::pair{out_lists.Positive(v), graph.PositiveNeighbors(v)},
            std::pair{out_lists.Negative(v), graph.NegativeNeighbors(v)}}) {
        std::vector<VertexId> expected;
        for (VertexId w : all) {
          if (rank[w] > rank[v]) expected.push_back(w);
        }
        EXPECT_EQ(std::vector<VertexId>(out.begin(), out.end()), expected)
            << name << " v=" << v;
      }
      EXPECT_EQ(out_lists.Degree(v),
                out_lists.PositiveDegree(v) + out_lists.NegativeDegree(v));
      stored += out_lists.Degree(v);
      max_out = std::max(max_out, out_lists.Degree(v));
    }
    EXPECT_EQ(stored, graph.NumEdges()) << name;
    // Under a degeneracy order no out-list exceeds the degeneracy.
    EXPECT_LE(max_out, degeneracy.degeneracy) << name;
  }
}

// MaxDegreeMember and AppendNetworkNeighbors read g_u off the signed graph
// without building it. Both must agree with a dense scan over the built
// g_u: the max-degree member of a side among the candidates N(u) minus a
// tabu member, its ties in local order, the seeded draw among them, and
// the winner's g_u neighbors.
TEST(NetworkBuilderTest, SparseScansMatchDenseScanOverBuiltNetwork) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const SignedGraph graph =
        testing_util::RandomSignedGraph(60, 500 * seed, 0.4, seed);
    DichromaticNetworkBuilder builder(graph);
    std::vector<VertexId> ties;
    std::vector<VertexId> neighbors;
    for (VertexId u = 0; u < graph.NumVertices(); ++u) {
      if (graph.Degree(u) < 2) continue;
      const DichromaticNetwork net = builder.Build(u);
      const DichromaticGraph& g = net.graph;
      const uint32_t k = g.NumVertices();
      // g_u's neighbors of local x other than u and `skip`, as vertex ids.
      const auto dense_neighbors = [&](uint32_t x, uint32_t skip) {
        std::vector<VertexId> ids;
        g.AdjacencyOf(x).ForEach([&](size_t w) {
          if (w != 0 && w != skip) ids.push_back(net.to_original[w]);
        });
        std::sort(ids.begin(), ids.end());
        return ids;
      };
      for (uint32_t y = 1; y < k; ++y) {
        neighbors.clear();
        builder.AppendNetworkNeighbors(u, net.to_original[y], &neighbors);
        std::sort(neighbors.begin(), neighbors.end());
        EXPECT_EQ(neighbors, dense_neighbors(y, 0)) << "u=" << u;
      }
      for (const uint32_t tabu : {0u, 1 + u % (k - 1)}) {
        Bitset candidates(k);
        for (uint32_t i = 1; i < k; ++i) {
          if (i != tabu) candidates.Set(i);
        }
        for (const Side side : {Side::kLeft, Side::kRight}) {
          std::vector<VertexId> want_ties;
          uint32_t best_degree = 0;
          candidates.ForEach([&](size_t v) {
            if (g.IsLeft(v) != (side == Side::kLeft)) return;
            const uint32_t degree =
                g.DegreeWithin(static_cast<uint32_t>(v), candidates);
            if (want_ties.empty() || degree > best_degree) {
              want_ties.assign(1, net.to_original[v]);
              best_degree = degree;
            } else if (degree == best_degree) {
              want_ties.push_back(net.to_original[v]);
            }
          });
          if (want_ties.empty()) continue;
          const VertexId tabu_id = net.to_original[tabu];
          const std::string where = "seed=" + std::to_string(seed) +
                                    " u=" + std::to_string(u) +
                                    " tabu=" + std::to_string(tabu_id);
          Rng want_rng(seed + u);
          Rng got_rng(seed + u);
          const VertexId want =
              want_ties.size() > 1
                  ? want_ties[want_rng.NextBounded(want_ties.size())]
                  : want_ties[0];
          neighbors.clear();
          const VertexId got = builder.MaxDegreeMember(
              u, side, tabu_id, &got_rng, &ties, &neighbors);
          EXPECT_EQ(got, want) << where;
          EXPECT_EQ(ties, want_ties) << where;
          EXPECT_EQ(got_rng.Next(), want_rng.Next()) << where;
          std::sort(neighbors.begin(), neighbors.end());
          const uint32_t got_local = static_cast<uint32_t>(
              std::find(net.to_original.begin(), net.to_original.end(), got) -
              net.to_original.begin());
          EXPECT_EQ(neighbors, dense_neighbors(got_local, tabu)) << where;
          if (tabu == 0) {
            // The deterministic variant: the lowest id among the ties.
            neighbors.clear();
            EXPECT_EQ(builder.MaxDegreeMember(u, side, &neighbors),
                      want_ties[0])
                << where;
          }
        }
      }
    }
  }
}

// A builder's out-lists belong to one rank, in Release builds too: a
// ranked call with another rank must fail rather than build networks from
// the wrong orientation.
TEST(NetworkBuilderDeathTest, RankedBuildWithAnotherRankFails) {
  const SignedGraph graph = testing_util::Figure4Graph();
  const VertexId n = graph.NumVertices();
  std::vector<uint32_t> ascending(n);
  std::iota(ascending.begin(), ascending.end(), 0u);
  std::vector<uint32_t> descending(ascending.rbegin(), ascending.rend());
  DichromaticNetwork net;

  DichromaticNetworkBuilder own(graph);
  own.BuildInto(0, ascending.data(), nullptr, &net);  // binds `ascending`
  EXPECT_DEATH(own.BuildInto(0, descending.data(), nullptr, &net),
               "rank differs");

  const RankedOutLists out_lists(graph, ascending.data());
  DichromaticNetworkBuilder shared(graph, out_lists);
  EXPECT_DEATH(shared.BuildInto(0, descending.data(), nullptr, &net),
               "rank differs");
  // Rank-less builds never read the out-lists and stay allowed.
  shared.BuildInto(0, nullptr, nullptr, &net);
  EXPECT_EQ(net.to_original.front(), 0u);
}

}  // namespace
}  // namespace mbc

// Copyright 2026 The balanced-clique Authors.
//
// MbcHeuristicSearch makes the greedy's first pick on the signed graph and
// builds each anchor's dichromatic network over that pick's g_u neighbors
// only; local search grows that network on demand. This test keeps the
// plain version as an oracle: every anchor's full g_u, the whole greedy in
// it, then the same local search. The two must agree field by field, in
// the checkpoint sequence too (armed fault injection, pre-expired
// contexts). The one field that differs by design is the network size
// with local search on, which is checked against its bounds: no less than
// the greedy's network, no more than the largest g_u.
#include "src/core/mbc_heu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/random.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/dichromatic/network_builder.h"
#include "src/graph/signed_graph_builder.h"
#include "src/graph/cores.h"
#include "src/pf/pdecompose.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

// ---- The oracle: the full-network greedy and local search. ----

constexpr uint32_t kNoPick = ~uint32_t{0};

/// Algorithm 3's alternating greedy over a candidate bitset of the full
/// g_u. If `first_pick` is non-null and still holds kNoPick, it receives
/// the first vertex this call adds.
void OracleGrow(const DichromaticGraph& g, Bitset* candidates,
                Bitset* members, size_t* left_size, size_t* right_size,
                Rng* rng, std::vector<uint32_t>* ties,
                ExecutionContext* exec, uint32_t* first_pick) {
  const Bitset& left_mask = g.LeftMask();
  while (candidates->Any()) {
    if (exec != nullptr && exec->Checkpoint()) return;
    const size_t left_avail = candidates->CountAnd(left_mask);
    const size_t right_avail = candidates->Count() - left_avail;
    const bool pick_right =
        left_avail == 0 || (right_avail != 0 && *left_size >= *right_size);
    uint32_t best = 0;
    uint32_t best_degree = 0;
    bool found = false;
    if (rng != nullptr) ties->clear();
    candidates->ForEach([&](size_t v) {
      if (pick_right == left_mask.Test(v)) return;
      const uint32_t degree =
          g.DegreeWithin(static_cast<uint32_t>(v), *candidates);
      if (!found || degree > best_degree) {
        found = true;
        best = static_cast<uint32_t>(v);
        best_degree = degree;
        if (rng != nullptr) {
          ties->clear();
          ties->push_back(best);
        }
      } else if (rng != nullptr && degree == best_degree) {
        ties->push_back(static_cast<uint32_t>(v));
      }
    });
    if (rng != nullptr && ties->size() > 1) {
      best = (*ties)[rng->NextBounded(ties->size())];
    }
    if (first_pick != nullptr && *first_pick == kNoPick) *first_pick = best;
    members->Set(best);
    (g.IsLeft(best) ? *left_size : *right_size) += 1;
    *candidates &= g.AdjacencyOf(best);
    candidates->Reset(best);
  }
}

BalancedClique OracleMaterialize(const DichromaticNetwork& net,
                                 const Bitset& members) {
  BalancedClique result;
  members.ForEach([&](size_t local) {
    auto& side = net.graph.IsLeft(local) ? result.left : result.right;
    side.push_back(net.to_original[local]);
  });
  result.Canonicalize();
  return result;
}

std::vector<VertexId> OracleAnchors(const SignedGraph& graph,
                                    uint32_t degeneracy_anchors) {
  const VertexId n = graph.NumVertices();
  VertexId by[4] = {0, 0, 0, 0};
  uint32_t best[4] = {0, 0, 0, 0};
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t pos = graph.PositiveDegree(v);
    const uint32_t neg = graph.NegativeDegree(v);
    const uint32_t score[4] = {std::min(pos, neg), pos, neg, pos + neg};
    for (int i = 0; i < 4; ++i) {
      if (score[i] > best[i]) {
        best[i] = score[i];
        by[i] = v;
      }
    }
  }
  const PolarDecomposition polar = PDecompose(graph);
  VertexId by_polar = 0;
  uint32_t best_pn = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (polar.polar_core_number[v] > best_pn) {
      best_pn = polar.polar_core_number[v];
      by_polar = v;
    }
  }
  std::vector<VertexId> anchors = {by[0], by[1], by[2], by[3], by_polar};
  if (degeneracy_anchors > 0) {
    const DegeneracyResult degeneracy = DegeneracyDecompose(graph);
    const size_t size = degeneracy.order.size();
    const size_t take = std::min<size_t>(degeneracy_anchors, size);
    for (size_t i = 0; i < take; ++i) {
      anchors.push_back(degeneracy.order[size - 1 - i]);
    }
  }
  std::vector<VertexId> unique;
  for (VertexId anchor : anchors) {
    if (std::find(unique.begin(), unique.end(), anchor) == unique.end()) {
      unique.push_back(anchor);
    }
  }
  return unique;
}

struct OracleRun {
  MbcHeuResult result;
  bool local_search = false;
  /// Per built anchor: 1 + d(u), and 2 + the first pick's g_u degree
  /// among N(u) (1 if no pick was made).
  std::vector<uint32_t> full_k;
  std::vector<uint32_t> pick_k;
};

OracleRun Oracle(const SignedGraph& graph, uint32_t tau,
                 const MbcHeuOptions& options) {
  OracleRun run;
  run.local_search = options.local_search_iterations > 0;
  MbcHeuResult& result = run.result;
  ExecutionScope scope(options.exec);
  ExecutionContext* exec = scope.get();
  // max_network_vertices is the greedy's; with local search on it is the
  // lower bound of the solver's (see ExpectSameResult).
  const auto finish = [&]() -> OracleRun& {
    result.stats.interrupt_reason = exec->reason();
    result.stats.timed_out = exec->Interrupted();
    for (uint32_t pick_k : run.pick_k) {
      result.stats.max_network_vertices =
          std::max(result.stats.max_network_vertices, pick_k);
    }
    return run;
  };
  if (graph.NumVertices() == 0) return finish();

  DichromaticNetworkBuilder builder(graph);
  DichromaticNetwork net;
  SearchArena arena;
  Rng rng;
  std::vector<uint32_t> ties;
  BalancedClique best;
  bool first_anchor = true;
  for (VertexId anchor : OracleAnchors(graph, options.degeneracy_anchors)) {
    ExecutionContext* grow_exec = first_anchor ? nullptr : exec;
    first_anchor = false;
    builder.BuildInto(anchor, nullptr, nullptr, &net);
    const DichromaticGraph& g = net.graph;
    const uint32_t k = g.NumVertices();
    arena.BindNetwork(k);
    SearchArena::Frame& frame = arena.FrameAt(0);
    SearchArena::Frame& scratch = arena.FrameAt(1);
    Bitset& members = frame.cand;
    Bitset& candidates = frame.pool;
    Bitset& anchor_best = frame.remaining;
    Bitset& backup = scratch.cand;

    members.Reshape(k);
    members.Set(0);
    size_t left_size = 1;
    size_t right_size = 0;
    candidates.CopyFrom(g.AdjacencyOf(0));
    candidates.Reset(0);
    uint32_t first_pick = kNoPick;
    OracleGrow(g, &candidates, &members, &left_size, &right_size, nullptr,
               nullptr, grow_exec, &first_pick);
    run.full_k.push_back(k);
    run.pick_k.push_back(
        first_pick == kNoPick
            ? 1
            : 1 + static_cast<uint32_t>(g.AdjacencyOf(first_pick).Count()));
    result.stats.greedy_size =
        std::max(result.stats.greedy_size, left_size + right_size);
    result.anchor_cliques.push_back(OracleMaterialize(net, members));

    size_t anchor_best_size = 0;
    if (std::min(left_size, right_size) >= tau) {
      anchor_best.CopyFrom(members);
      anchor_best_size = left_size + right_size;
    } else {
      anchor_best.Reshape(k);
    }
    rng.Reseed(options.seed ^
               (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(anchor) + 1)));
    bool interrupted = false;
    for (uint32_t iter = 0; iter < options.local_search_iterations; ++iter) {
      if (exec->Checkpoint()) {
        interrupted = true;
        break;
      }
      const size_t size_before = left_size + right_size;
      if (size_before == 0 || size_before >= k) break;
      ++result.stats.ls_iterations;
      backup.CopyFrom(members);
      const size_t backup_left = left_size;
      const size_t backup_right = right_size;
      size_t drop_index = rng.NextBounded(size_before);
      uint32_t drop = 0;
      members.ForEach([&](size_t v) {
        if (drop_index == 0) drop = static_cast<uint32_t>(v);
        --drop_index;
      });
      members.Reset(drop);
      (g.IsLeft(drop) ? left_size : right_size) -= 1;
      candidates.ReshapeUninit(k);
      candidates.SetAll();
      members.ForEach([&](size_t m) { candidates &= g.AdjacencyOf(m); });
      candidates.AndNot(members);
      candidates.Reset(drop);
      OracleGrow(g, &candidates, &members, &left_size, &right_size, &rng,
                 &ties, exec, nullptr);
      candidates.ReshapeUninit(k);
      candidates.SetAll();
      members.ForEach([&](size_t m) { candidates &= g.AdjacencyOf(m); });
      candidates.AndNot(members);
      OracleGrow(g, &candidates, &members, &left_size, &right_size, nullptr,
                 nullptr, exec, nullptr);
      const size_t size_after = left_size + right_size;
      if (size_after < size_before) {
        members.CopyFrom(backup);
        left_size = backup_left;
        right_size = backup_right;
        continue;
      }
      if (std::min(left_size, right_size) >= tau &&
          size_after > anchor_best_size) {
        anchor_best.CopyFrom(members);
        anchor_best_size = size_after;
        ++result.stats.ls_improvements;
      }
    }
    if (anchor_best_size > best.size()) {
      best = OracleMaterialize(net, anchor_best);
    }
    if (interrupted || exec->Probe()) break;
  }
  result.clique = std::move(best);
  return finish();
}

// ---- Comparison helpers. ----

/// Every field equal, except that with local search on the network size
/// lies between the greedy's and 1 + the largest anchor degree.
void ExpectSameResult(const MbcHeuResult& got, const OracleRun& oracle,
                      const std::string& where) {
  const MbcHeuResult& want = oracle.result;
  EXPECT_EQ(got.clique.left, want.clique.left) << where;
  EXPECT_EQ(got.clique.right, want.clique.right) << where;
  ASSERT_EQ(got.anchor_cliques.size(), want.anchor_cliques.size()) << where;
  for (size_t i = 0; i < want.anchor_cliques.size(); ++i) {
    EXPECT_EQ(got.anchor_cliques[i].left, want.anchor_cliques[i].left)
        << where << " anchor " << i;
    EXPECT_EQ(got.anchor_cliques[i].right, want.anchor_cliques[i].right)
        << where << " anchor " << i;
  }
  EXPECT_EQ(got.stats.greedy_size, want.stats.greedy_size) << where;
  EXPECT_EQ(got.stats.ls_iterations, want.stats.ls_iterations) << where;
  EXPECT_EQ(got.stats.ls_improvements, want.stats.ls_improvements) << where;
  if (oracle.local_search) {
    const uint32_t largest_g_u =
        oracle.full_k.empty()
            ? 0
            : *std::max_element(oracle.full_k.begin(), oracle.full_k.end());
    EXPECT_GE(got.stats.max_network_vertices,
              want.stats.max_network_vertices)
        << where;
    EXPECT_LE(got.stats.max_network_vertices, largest_g_u) << where;
  } else {
    EXPECT_EQ(got.stats.max_network_vertices,
              want.stats.max_network_vertices)
        << where;
  }
  EXPECT_EQ(got.stats.timed_out, want.stats.timed_out) << where;
  EXPECT_EQ(got.stats.interrupt_reason, want.stats.interrupt_reason)
      << where;
}

/// Runs both versions under fresh, unarmed contexts: every field must
/// agree, and so must the number of checkpoint ticks each took.
void ExpectMatches(const SignedGraph& graph, uint32_t tau,
                   MbcHeuOptions options, const std::string& where) {
  ExecutionContext mine;
  ExecutionContext theirs;
  for (ExecutionContext* exec : {&mine, &theirs}) {
    exec->DisarmFaultInjection();
  }
  options.exec = &mine;
  const MbcHeuResult got = MbcHeuristicSearch(graph, tau, options);
  options.exec = &theirs;
  ExpectSameResult(got, Oracle(graph, tau, options), where);
  EXPECT_EQ(mine.ticks(), theirs.ticks()) << where;
  if (!got.clique.empty()) {
    EXPECT_TRUE(IsBalancedClique(graph, got.clique)) << where;
  }
}

/// τ = 0..3, local search off and on, with and without the degeneracy
/// anchors.
void ExpectMatchesOracle(const SignedGraph& graph, const std::string& name) {
  for (uint32_t tau = 0; tau <= 3; ++tau) {
    for (uint32_t iterations : {0u, 24u}) {
      for (uint32_t degeneracy : {0u, 4u}) {
        MbcHeuOptions options;
        options.seed = 7 + tau;
        options.local_search_iterations = iterations;
        options.degeneracy_anchors = degeneracy;
        const std::string where =
            name + " tau=" + std::to_string(tau) +
            " ls=" + std::to_string(iterations) +
            " degeneracy=" + std::to_string(degeneracy);
        ExpectMatches(graph, tau, options, where);
      }
    }
  }
}

SignedGraph HubBscl() {
  BsclOptions options;
  options.num_vertices = 6000;
  options.num_edges = 36000;
  options.seed = 3;
  return GenerateBsclSignedGraph(options);
}

/// A hub, vertex 0, adjacent to about 2/3 of 8-67 vertices, plus n/2
/// random edges among the others. Most of the hub's first picks then have
/// no g_u neighbor, so its greedy clique is {0, b}, and local search's
/// drop of b repicks over the hub's whole side, among many tied vertices.
SignedGraph HubWithSparseEdges(uint64_t seed) {
  Rng rng(seed);
  const VertexId n = 8 + static_cast<VertexId>(rng.NextBounded(60));
  SignedGraphBuilder builder(n);
  builder.set_sign_conflict_policy(
      SignedGraphBuilder::SignConflictPolicy::kDropEdge);
  const auto sign = [&] {
    return rng.NextBounded(2) == 0 ? Sign::kPositive : Sign::kNegative;
  };
  for (VertexId v = 1; v < n; ++v) {
    if (rng.NextBounded(3) != 0) builder.AddEdge(0, v, sign());
  }
  for (VertexId e = 0; e < n / 2; ++e) {
    const auto a = static_cast<VertexId>(1 + rng.NextBounded(n - 1));
    const auto b = static_cast<VertexId>(1 + rng.NextBounded(n - 1));
    if (a != b) builder.AddEdge(a, b, sign());
  }
  return std::move(builder).Build();
}

VertexId MaxDegreeVertex(const SignedGraph& graph) {
  VertexId hub = 0;
  for (VertexId v = 1; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) > graph.Degree(hub)) hub = v;
  }
  return hub;
}

// ---- Tests. ----

TEST(MbcHeuSparsePickTest, MatchesFullNetworkGreedyOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const SignedGraph graph =
        testing_util::RandomSignedGraph(150, 900, 0.2 + 0.1 * seed, seed);
    ExpectMatchesOracle(graph, "random seed=" + std::to_string(seed));
  }
  ExpectMatchesOracle(testing_util::Figure2Graph(), "figure2");
  const SignedGraph planted = PlantBalancedCliques(
      testing_util::RandomSignedGraph(400, 2500, 0.4, 11), {{6, 5}}, 3);
  ExpectMatchesOracle(planted, "planted");
}

TEST(MbcHeuSparsePickTest, MatchesFullNetworkGreedyOnHubBscl) {
  const SignedGraph graph = HubBscl();
  ASSERT_GE(graph.NumVertices(), 5000u);
  const VertexId hub = MaxDegreeVertex(graph);
  // Hub-heavy: one vertex sees a large share of the graph.
  ASSERT_GE(graph.Degree(hub) * 20, graph.NumVertices());
  ExpectMatchesOracle(graph, "bscl");
}

// The network sizes the greedy and local search pay for, on the hub
// graph: the anchor's first pick and its g_u neighbors without local
// search; with it, the covered members' g_u neighbors, still a small
// share of the hub's g_u.
TEST(MbcHeuSparsePickTest, NetworkSizeOnHubGraph) {
  const SignedGraph graph = HubBscl();
  const VertexId hub = MaxDegreeVertex(graph);
  MbcHeuOptions options;
  options.degeneracy_anchors = 0;
  options.local_search_iterations = 0;
  const OracleRun greedy = Oracle(graph, 1, options);
  const MbcHeuResult greedy_got = MbcHeuristicSearch(graph, 1, options);
  ExpectSameResult(greedy_got, greedy, "greedy");
  const uint32_t largest_pick =
      *std::max_element(greedy.pick_k.begin(), greedy.pick_k.end());
  EXPECT_LE(greedy_got.stats.max_network_vertices, largest_pick);
  EXPECT_LT(greedy_got.stats.max_network_vertices * 10,
            1 + graph.Degree(hub));

  options.local_search_iterations = 8;
  const OracleRun local = Oracle(graph, 1, options);
  const MbcHeuResult local_got = MbcHeuristicSearch(graph, 1, options);
  ExpectSameResult(local_got, local, "local search");
  EXPECT_LT(local_got.stats.max_network_vertices * 10,
            1 + graph.Degree(hub));
}

// Local search from two-vertex greedy cliques: dropping b from {u, b}
// makes the regrowth's first pick over all of N(u) with seeded ties.
TEST(MbcHeuSparsePickTest, MatchesFullNetworkSearchOnHubWithSparseEdges) {
  size_t hub_pairs = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const SignedGraph graph = HubWithSparseEdges(seed);
    for (uint32_t tau = 0; tau <= 2; ++tau) {
      for (uint32_t iterations : {24u, 300u}) {
        MbcHeuOptions options;
        options.seed = seed + tau;
        options.local_search_iterations = iterations;
        const std::string where =
            "hub seed=" + std::to_string(seed) + " tau=" +
            std::to_string(tau) + " ls=" + std::to_string(iterations);
        ExpectMatches(graph, tau, options, where);
        const MbcHeuResult got = MbcHeuristicSearch(graph, tau, options);
        for (const BalancedClique& clique : got.anchor_cliques) {
          if (clique.size() == 2 && clique.left[0] == 0) ++hub_pairs;
        }
      }
    }
  }
  // The family does reach the move it is for.
  EXPECT_GT(hub_pairs, 0u);
}

// An anchor with no negative neighbors, one with no positive neighbors,
// an isolated anchor, and a first pick with no g_u neighbor.
TEST(MbcHeuSparsePickTest, MatchesFullNetworkGreedyOnEdgeCases) {
  // All positive: every N-(u) is empty, the first pick is on the left.
  ExpectMatchesOracle(testing_util::FromText("0 1 1\n1 2 1\n0 2 1\n2 3 1\n"),
                      "all positive");
  // All negative: every N+(u) is empty.
  ExpectMatchesOracle(
      testing_util::FromText("0 1 -1\n0 2 -1\n0 3 -1\n1 2 -1\n3 4 -1\n"),
      "all negative");
  // No edges: every anchor is isolated.
  {
    SignedGraphBuilder builder(4);
    ExpectMatchesOracle(std::move(builder).Build(), "isolated");
  }
  // A star: the hub's first pick has no neighbor in g_u, so the greedy
  // network is {u, pick}.
  {
    SignedGraphBuilder builder(9);
    for (VertexId v = 1; v < 9; ++v) {
      builder.AddEdge(0, v, v % 2 == 0 ? Sign::kPositive : Sign::kNegative);
    }
    const SignedGraph star = std::move(builder).Build();
    ExpectMatchesOracle(star, "star");
    MbcHeuOptions options;
    options.local_search_iterations = 0;
    options.degeneracy_anchors = 0;
    EXPECT_EQ(MbcHeuristicSearch(star, 0, options).stats.max_network_vertices,
              2u);
  }
  // A hub whose kept neighbors are all on one side of a conflicting edge.
  ExpectMatchesOracle(
      testing_util::FromText("0 1 1\n0 2 1\n0 3 -1\n0 4 -1\n1 3 1\n2 4 1\n"
                             "1 2 -1\n3 4 1\n"),
      "conflicts only");
}

// The checkpoint sequence: a pre-expired context lets only the first
// anchor's greedy run, and armed fault injection trips at the same probe
// in both versions only if every Checkpoint() tick lines up.
TEST(MbcHeuSparsePickTest, SameCheckpointSequenceAsFullNetworkGreedy) {
  const SignedGraph graph = HubBscl();
  const SignedGraph random = testing_util::RandomSignedGraph(300, 3000, 0.4, 9);
  const SignedGraph hub = HubWithSparseEdges(7);
  for (const SignedGraph* g : {&graph, &random, &hub}) {
    // 300 rounds span several 1024-tick probe strides, so a shifted tick
    // moves a probe to another point of the search.
    for (uint32_t iterations : {0u, 24u, 300u}) {
      MbcHeuOptions options;
      options.local_search_iterations = iterations;
      const std::string name =
          std::string(g == &graph ? "bscl" : g == &random ? "random" : "hub") +
          " ls=" + std::to_string(iterations);
      {
        ExecutionContext mine;
        ExecutionContext theirs;
        for (ExecutionContext* exec : {&mine, &theirs}) {
          exec->DisarmFaultInjection();
          exec->set_deadline(Deadline::After(0));
        }
        options.exec = &mine;
        const MbcHeuResult got = MbcHeuristicSearch(*g, 1, options);
        options.exec = &theirs;
        ExpectSameResult(got, Oracle(*g, 1, options), name + " pre-expired");
        EXPECT_EQ(got.anchor_cliques.size(), 1u) << name;
        EXPECT_EQ(got.stats.interrupt_reason, InterruptReason::kDeadline);
      }
      for (uint64_t seed = 1; seed <= 8; ++seed) {
        ExecutionContext mine;
        ExecutionContext theirs;
        for (ExecutionContext* exec : {&mine, &theirs}) {
          exec->ArmFaultInjection(0.35, seed);
        }
        options.exec = &mine;
        const MbcHeuResult got = MbcHeuristicSearch(*g, 1, options);
        options.exec = &theirs;
        ExpectSameResult(got, Oracle(*g, 1, options),
                         name + " fault seed=" + std::to_string(seed));
        EXPECT_EQ(mine.ticks(), theirs.ticks()) << name;
      }
    }
  }
}

}  // namespace
}  // namespace mbc

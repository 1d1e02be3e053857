// Copyright 2026 The balanced-clique Authors.
//
// Failure-injection tests for the execution governor's wall-clock path:
// expired budgets must degrade gracefully (valid partial results, flags
// set), never crash or return invalid cliques. All interrupt trips here
// are deterministic: ExecutionContext::Checkpoint() probes on its very
// first call, so a zero deadline fires before any search work happens.
#include <gtest/gtest.h>

#include "src/common/execution.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_star.h"
#include "src/core/reductions.h"
#include "src/core/verify.h"
#include "src/datasets/generators.h"
#include "src/gmbc/gmbc.h"
#include "src/pf/pf_star.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

SignedGraph PlantedGraph() {
  const SignedGraph base = RandomSignedGraph(800, 6000, 0.4, 3);
  return PlantBalancedCliques(base, {{5, 6}}, 1);
}

TEST(TimeLimitTest, MbcStarZeroBudgetStillReturnsValidClique) {
  const SignedGraph graph = PlantedGraph();
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  // Only the heuristic's first anchor runs, and at τ=2 its greedy clique
  // misses the threshold here, so the answer is empty — still valid.
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

// MBC-Heu's first anchor runs to completion whatever the governor says, so
// MBC*'s Line 2 seeds the answer with that anchor's full greedy clique even
// when the budget expired before the solve began.
TEST(TimeLimitTest, MbcStarZeroBudgetKeepsFirstAnchorGreedy) {
  const SignedGraph graph = PlantedGraph();
  for (const uint32_t tau : {0u, 1u}) {
    const SignedGraph reduced = ApplyVertexReduction(graph, tau).graph;
    const BalancedClique first_greedy =
        MbcHeuristicSearch(reduced, tau).anchor_cliques.front();
    ASSERT_GE(first_greedy.MinSide(), tau);
    ASSERT_GT(first_greedy.size(), 1u);

    ExecutionContext exec(Deadline::After(0.0));
    MbcStarOptions options;
    options.exec = &exec;
    const MbcStarResult result = MaxBalancedCliqueStar(graph, tau, options);
    EXPECT_EQ(result.stats.heuristic_size, first_greedy.size())
        << "tau=" << tau;
    EXPECT_EQ(result.clique.size(), first_greedy.size()) << "tau=" << tau;
    EXPECT_TRUE(IsBalancedClique(graph, result.clique));
    EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  }
}

TEST(TimeLimitTest, MbcStarGenerousBudgetIsExact) {
  const SignedGraph graph = testing_util::Figure2Graph();
  ExecutionContext exec(Deadline::After(1e6));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 2, options);
  EXPECT_FALSE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kNone);
  EXPECT_EQ(result.clique.size(), 6u);
}

TEST(TimeLimitTest, EdgeReductionZeroBudgetReturnsInput) {
  const SignedGraph graph = RandomSignedGraph(2000, 30000, 0.45, 5);
  ExecutionContext exec(Deadline::After(0.0));
  const SignedGraph reduced = EdgeReduction(graph, 3, &exec);
  // The pre-loop probe trips, and a partial round is discarded wholesale.
  EXPECT_EQ(reduced.NumEdges(), graph.NumEdges());
  EXPECT_TRUE(exec.Interrupted());
}

TEST(TimeLimitTest, EdgeReductionPartialIsSupersetOfFull) {
  const SignedGraph graph = RandomSignedGraph(120, 900, 0.45, 9);
  const SignedGraph full = EdgeReduction(graph, 3);
  ExecutionContext exec(Deadline::After(0.0));
  const SignedGraph partial = EdgeReduction(graph, 3, &exec);
  // Every edge surviving the full reduction also survives the partial one
  // (partial = a prefix of the removal rounds).
  full.ForEachEdge([&partial](VertexId u, VertexId v, Sign sign) {
    EXPECT_EQ(partial.EdgeSign(u, v), sign);
  });
  EXPECT_GE(partial.NumEdges(), full.NumEdges());
}

TEST(TimeLimitTest, PfStarZeroBudgetReturnsHeuristicLowerBound) {
  const SignedGraph base = RandomSignedGraph(600, 4000, 0.4, 7);
  const SignedGraph graph = PlantBalancedCliques(base, {{4, 4}}, 2);
  ExecutionContext exec(Deadline::After(0.0));
  PfStarOptions options;
  options.exec = &exec;
  const PfStarResult result = PolarizationFactorStar(graph, options);
  // The result is a valid lower bound with a valid witness.
  EXPECT_TRUE(IsBalancedClique(graph, result.witness));
  EXPECT_EQ(result.witness.MinSide(), result.beta);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  const PfStarResult exact = PolarizationFactorStar(graph);
  EXPECT_LE(result.beta, exact.beta);
}

TEST(TimeLimitTest, GmbcStarZeroBudgetKeepsInvariants) {
  const SignedGraph base = RandomSignedGraph(500, 3500, 0.4, 11);
  const SignedGraph graph = PlantBalancedCliques(base, {{3, 4}}, 5);
  ExecutionContext exec(Deadline::After(0.0));
  GeneralizedMbcOptions options;
  options.exec = &exec;
  const GeneralizedMbcResult result = GeneralizedMbcStar(graph, options);
  ASSERT_EQ(result.cliques.size(), static_cast<size_t>(result.beta) + 1);
  for (uint32_t tau = 0; tau <= result.beta; ++tau) {
    EXPECT_TRUE(IsBalancedClique(graph, result.cliques[tau]));
    EXPECT_TRUE(result.cliques[tau].SatisfiesThreshold(tau));
  }
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, ExpiredBudgetSetsFlagOnHardInstance) {
  const SignedGraph graph = RandomSignedGraph(3000, 60000, 0.45, 13);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  options.run_heuristic = false;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
}

TEST(TimeLimitTest, SharedContextDeadlineIsObservedBySolver) {
  // A caller-owned context with an already-expired deadline stops the
  // search and reports through the solver's stats.
  const SignedGraph graph = RandomSignedGraph(400, 3000, 0.4, 17);
  ExecutionContext exec(Deadline::After(0.0));
  MbcStarOptions options;
  options.exec = &exec;
  const MbcStarResult result = MaxBalancedCliqueStar(graph, 1, options);
  EXPECT_TRUE(result.stats.timed_out);
  EXPECT_EQ(result.stats.interrupt_reason, InterruptReason::kDeadline);
  EXPECT_TRUE(IsBalancedClique(graph, result.clique));
}

}  // namespace
}  // namespace mbc

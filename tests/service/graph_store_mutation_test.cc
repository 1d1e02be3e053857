// Copyright 2026 The balanced-clique Authors.
//
// GraphStore streaming tests: Mutate versioning, delta-state lifecycle
// across Evict/reload, incremental core accounting, and Compact.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/common/status.h"
#include "src/datasets/generators.h"
#include "src/graph/cores.h"
#include "src/graph/graph_index.h"
#include "src/pf/pdecompose.h"
#include "src/service/graph_store.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::FromText;

SignedGraph PathGraph() {
  return FromText(R"(
    0 1 1
    1 2 1
    2 3 -1
  )");
}

MutationBatch AddBatch(VertexId u, VertexId v,
                       Sign sign = Sign::kPositive) {
  MutationBatch batch;
  batch.add.push_back({u, v, sign});
  return batch;
}

MutationBatch RemoveBatch(VertexId u, VertexId v) {
  MutationBatch batch;
  batch.remove.emplace_back(u, v);
  return batch;
}

TEST(GraphStoreMutationTest, MutateMintsNewVersionedHead) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());
  const uint64_t base_fp = store.Find("g").value()->fingerprint();

  const auto outcome = store.Mutate("g", AddBatch(0, 2), DeltaBudget{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().old_fingerprint, base_fp);
  EXPECT_EQ(outcome.value().stats.version, 1u);
  EXPECT_NE(outcome.value().stats.fingerprint, base_fp);

  const auto head = store.Find("g");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value()->version(), 1u);
  EXPECT_EQ(head.value()->fingerprint(), outcome.value().stats.fingerprint);
  EXPECT_EQ(head.value()->graph().NumEdges(), 4u);

  // Stacking: the next batch builds on the new head.
  ASSERT_TRUE(store.Mutate("g", RemoveBatch(2, 3), DeltaBudget{}).ok());
  EXPECT_EQ(store.Find("g").value()->version(), 2u);
  EXPECT_EQ(store.Find("g").value()->graph().NumEdges(), 3u);
}

TEST(GraphStoreMutationTest, AllNoopBatchLeavesHeadInPlace) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());
  const auto before = store.Find("g").value();

  // Re-adding an existing edge with its existing sign is a noop.
  const auto outcome = store.Mutate("g", AddBatch(0, 1), DeltaBudget{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().stats.noops, 1u);
  EXPECT_EQ(outcome.value().stats.version, 0u);

  const auto after = store.Find("g").value();
  EXPECT_EQ(after.get(), before.get());  // same snapshot object
}

TEST(GraphStoreMutationTest, MutateUnknownNameIsNotFound) {
  GraphStore store;
  EXPECT_EQ(store.Mutate("nope", AddBatch(0, 1), DeltaBudget{})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.Compact("nope").status().code(), StatusCode::kNotFound);
}

TEST(GraphStoreMutationTest, EvictClearsDeltaStateForReload) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());
  ASSERT_TRUE(store.Mutate("g", AddBatch(0, 2), DeltaBudget{}).ok());
  ASSERT_TRUE(store.Evict("g").ok());

  // A reload under the same name starts a fresh lineage: version 0 and a
  // first mutation that sees no stale log or core tracker.
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());
  EXPECT_EQ(store.Find("g").value()->version(), 0u);
  const auto outcome = store.Mutate("g", AddBatch(1, 3), DeltaBudget{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().stats.version, 1u);
  EXPECT_EQ(store.Find("g").value()->graph().NumEdges(), 4u);
}

TEST(GraphStoreMutationTest, IncrementalCoreCountersTrackSkeletonEdits) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());

  // Closing the 0-1-2 triangle lifts three vertices to core 2.
  const auto grow = store.Mutate("g", AddBatch(0, 2), DeltaBudget{});
  ASSERT_TRUE(grow.ok());
  EXPECT_EQ(grow.value().core_affected, 3u);
  EXPECT_GE(grow.value().core_visited, grow.value().core_affected);

  // A sign flip does not change the skeleton, so no core work happens.
  const auto flip = store.Mutate("g", AddBatch(0, 1, Sign::kNegative),
                                 DeltaBudget{});
  ASSERT_TRUE(flip.ok());
  EXPECT_EQ(flip.value().stats.flipped, 1u);
  EXPECT_EQ(flip.value().core_affected, 0u);
  EXPECT_EQ(flip.value().core_visited, 0u);
}

TEST(GraphStoreMutationTest, CompactRewritesToContentFingerprint) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", PathGraph()).ok());
  // A permissive budget keeps the drift un-compacted (the default ratio
  // would auto-compact on a 3-edge base), so Compact has work to do.
  DeltaBudget budget;
  budget.compact_ratio = 100.0;
  ASSERT_TRUE(store.Mutate("g", AddBatch(0, 3, Sign::kNegative), budget)
                  .ok());

  const auto first = store.Compact("g");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().changed);
  const auto head = store.Find("g").value();
  EXPECT_EQ(first.value().fingerprint, FingerprintSignedGraph(head->graph()));
  EXPECT_EQ(head->fingerprint(), first.value().fingerprint);
  EXPECT_EQ(head->version(), first.value().version);

  // Already content-addressed: a second compaction is a no-op.
  const auto second = store.Compact("g");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().changed);
  EXPECT_EQ(second.value().fingerprint, first.value().fingerprint);
}

void ExpectIndexMatchesRecomputation(const SignedGraph& graph) {
  const PolarDecomposition polar = PDecompose(graph);
  EXPECT_EQ(graph.Index().Polar(graph).pn, polar.polar_core_number);
  EXPECT_EQ(graph.Index().Polar(graph).max, polar.max_polar_core);
  EXPECT_EQ(graph.Index().DegeneracyOrder(graph),
            DegeneracyDecompose(graph).order);
}

TEST(GraphStoreMutationTest, IndexFollowsMutationAndCompaction) {
  GraphStore store;
  BsclOptions options;
  options.num_vertices = 800;
  options.num_edges = 5000;
  options.seed = 21;
  ASSERT_TRUE(store.Load("g", GenerateBsclSignedGraph(options)).ok());
  const GraphStore::SnapshotPtr base = store.Find("g").value();
  const SignedGraph& base_graph = base->graph();
  // A query builds the base's index before the batch.
  const PolarCoreNumbers& base_polar = base_graph.Index().Polar(base_graph);
  const std::vector<uint32_t> base_pn = base_polar.pn;
  const std::vector<VertexId> base_order =
      base_graph.Index().DegeneracyOrder(base_graph);

  // Wire vertices 400..415 into a balanced clique and drop each of
  // vertices 0..9's negative edges to vertices 10..399, so that pn moves.
  MutationBatch batch;
  for (VertexId u = 400; u < 416; ++u) {
    for (VertexId v = u + 1; v < 416; ++v) {
      batch.add.push_back(
          {u, v, u % 2 == v % 2 ? Sign::kPositive : Sign::kNegative});
    }
  }
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v : base_graph.NegativeNeighbors(u)) {
      if (v >= 10 && v < 400) batch.remove.emplace_back(u, v);
    }
  }
  DeltaBudget budget;
  budget.compact_ratio = 100.0;  // keep the drift for Compact below
  const auto outcome = store.Mutate("g", batch, budget);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GT(outcome.value().stats.removed, 0u);

  const GraphStore::SnapshotPtr head = store.Find("g").value();
  ASSERT_NE(head.get(), base.get());
  const SignedGraph& head_graph = head->graph();
  EXPECT_NE(&head_graph.Index(), &base_graph.Index());
  EXPECT_EQ(head_graph.Index().MemoryBytes(), 0u);
  ExpectIndexMatchesRecomputation(head_graph);
  EXPECT_NE(head_graph.Index().Polar(head_graph).pn, base_pn);

  // The previous snapshot keeps its own index, untouched.
  EXPECT_EQ(&base_graph.Index().Polar(base_graph), &base_polar);
  EXPECT_EQ(base_polar.pn, base_pn);
  EXPECT_EQ(base_graph.Index().DegeneracyOrder(base_graph), base_order);
  ExpectIndexMatchesRecomputation(base_graph);

  const auto compacted = store.Compact("g");
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted.value().changed);
  const GraphStore::SnapshotPtr rebased = store.Find("g").value();
  ASSERT_NE(rebased.get(), head.get());
  ExpectIndexMatchesRecomputation(rebased->graph());
}

TEST(GraphStoreMutationTest, ConcurrentMutationsOfOneNameSerialize) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", testing_util::RandomSignedGraph(32, 60, 0.3,
                                                              13))
                  .ok());
  // Two threads add disjoint fresh edges; both batches must land (the
  // per-name mutation lock serializes them, the loser re-stacks).
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&store, &failures, t] {
      for (int i = 0; i < 8; ++i) {
        const VertexId u = static_cast<VertexId>(t * 16 + i);
        if (!store.Mutate("g", RemoveBatch(u, u + 1), DeltaBudget{}).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(store.Find("g").ok());
}

}  // namespace
}  // namespace mbc

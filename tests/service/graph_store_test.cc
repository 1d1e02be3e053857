// Copyright 2026 The balanced-clique Authors.
#include "src/service/graph_store.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/common/memory.h"
#include "src/common/status.h"
#include "src/datasets/generators.h"
#include "src/graph/binary_io.h"
#include "src/graph/graph_index.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::RandomSignedGraph;

TEST(GraphStoreTest, LoadFindEvictRoundTrip) {
  GraphStore store;
  ASSERT_TRUE(store.Load("fig2", Figure2Graph()).ok());
  EXPECT_EQ(store.size(), 1u);

  Result<GraphStore::SnapshotPtr> found = store.Find("fig2");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->name(), "fig2");
  EXPECT_EQ(found.value()->graph().NumVertices(),
            Figure2Graph().NumVertices());

  ASSERT_TRUE(store.Evict("fig2").ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Find("fig2").status().code(), StatusCode::kNotFound);
}

TEST(GraphStoreTest, FindUnknownNameIsNotFound) {
  GraphStore store;
  EXPECT_EQ(store.Find("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Evict("nope").code(), StatusCode::kNotFound);
}

TEST(GraphStoreTest, DuplicateLoadIsRejected) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", Figure2Graph()).ok());
  const Status again = store.Load("g", Figure2Graph());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.size(), 1u);
}

TEST(GraphStoreTest, EmptyNameIsRejected) {
  GraphStore store;
  EXPECT_EQ(store.Load("", Figure2Graph()).code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphStoreTest, FingerprintIsContentAddressed) {
  GraphStore store;
  // The same bytes under two names fingerprint identically; a different
  // graph fingerprints differently.
  ASSERT_TRUE(store.Load("a", RandomSignedGraph(64, 400, 0.4, 7)).ok());
  ASSERT_TRUE(store.Load("b", RandomSignedGraph(64, 400, 0.4, 7)).ok());
  ASSERT_TRUE(store.Load("c", RandomSignedGraph(64, 400, 0.4, 8)).ok());
  const uint64_t fp_a = store.Find("a").value()->fingerprint();
  const uint64_t fp_b = store.Find("b").value()->fingerprint();
  const uint64_t fp_c = store.Find("c").value()->fingerprint();
  EXPECT_EQ(fp_a, fp_b);
  EXPECT_NE(fp_a, fp_c);
}

TEST(GraphStoreTest, FingerprintSurvivesEvictAndReload) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", RandomSignedGraph(32, 150, 0.5, 3)).ok());
  const uint64_t before = store.Find("g").value()->fingerprint();
  ASSERT_TRUE(store.Evict("g").ok());
  ASSERT_TRUE(store.Load("g", RandomSignedGraph(32, 150, 0.5, 3)).ok());
  EXPECT_EQ(store.Find("g").value()->fingerprint(), before);
}

TEST(GraphStoreTest, EvictedSnapshotStaysAliveWhileHeld) {
  GraphStore store;
  ASSERT_TRUE(store.Load("g", Figure2Graph()).ok());
  GraphStore::SnapshotPtr held = store.Find("g").value();
  ASSERT_TRUE(store.Evict("g").ok());
  // The snapshot (and the graph inside it) must remain valid: a running
  // query holds exactly this kind of reference across an evict.
  EXPECT_EQ(held->graph().NumVertices(), Figure2Graph().NumVertices());
  EXPECT_NE(held->fingerprint(), 0u);
}

TEST(GraphStoreTest, MemoryAccountingSettles) {
  const size_t baseline = MemoryTracker::Global().current_bytes();
  {
    GraphStore store;
    ASSERT_TRUE(store.Load("g", RandomSignedGraph(128, 800, 0.4, 1)).ok());
    EXPECT_GT(MemoryTracker::Global().current_bytes(), baseline);
    EXPECT_GT(store.TotalMemoryBytes(), 0u);
    ASSERT_TRUE(store.Evict("g").ok());
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), baseline);
}

TEST(GraphStoreTest, ChargeCountsTheIndexOnceBuilt) {
  const uint64_t baseline = MemoryTracker::Global().current_bytes();
  {
    GraphStore store;
    ASSERT_TRUE(store.Load("g", RandomSignedGraph(128, 800, 0.4, 1)).ok());
    const GraphStore::SnapshotPtr snapshot = store.Find("g").value();
    const SignedGraph& graph = snapshot->graph();
    const size_t at_load = snapshot->memory_bytes();
    EXPECT_EQ(graph.Index().MemoryBytes(), 0u);
    snapshot->RefreshMemoryAccounting();
    EXPECT_EQ(snapshot->memory_bytes(), at_load);

    // A query builds the index; Evict re-samples the charge, so the
    // uncharge when the last reference drops covers the index too.
    graph.Index().Polar(graph);
    graph.Index().DegeneracyOrder(graph);
    const size_t index_bytes = graph.Index().MemoryBytes();
    EXPECT_EQ(index_bytes, 2 * sizeof(uint32_t) * graph.NumVertices());
    ASSERT_TRUE(store.Evict("g").ok());
    EXPECT_EQ(snapshot->memory_bytes(), at_load + index_bytes);
    EXPECT_EQ(MemoryTracker::Global().current_bytes(),
              baseline + at_load + index_bytes);
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), baseline);
}

TEST(GraphStoreTest, ListIsSortedAndComplete) {
  GraphStore store;
  ASSERT_TRUE(store.Load("zeta", Figure2Graph()).ok());
  ASSERT_TRUE(store.Load("alpha", RandomSignedGraph(16, 40, 0.5, 2)).ok());
  const std::vector<GraphStore::ListEntry> entries = store.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].name, "zeta");
  EXPECT_EQ(entries[1].num_vertices, Figure2Graph().NumVertices());
  EXPECT_GT(entries[0].memory_bytes, 0u);
}

TEST(GraphStoreTest, LoadFromMissingFileFails) {
  GraphStore store;
  EXPECT_FALSE(store.LoadFromFile("g", "/nonexistent/graph.txt").ok());
  EXPECT_EQ(store.size(), 0u);
}

std::string TempGraphPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

size_t StatmResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream probe(path, std::ios::binary | std::ios::ate);
  return probe ? static_cast<uint64_t>(probe.tellg()) : 0;
}

TEST(GraphStoreMmapTest, SniffsV2AndLoadsZeroCopy) {
  BsclOptions options;
  options.num_vertices = 60000;
  options.num_edges = 400000;
  options.seed = 13;
  const SignedGraph graph = GenerateBsclSignedGraph(options);
  const std::string path = TempGraphPath("store_mmap.mbcg");
  ASSERT_TRUE(WriteSignedGraphBinary(graph, path).ok());
  const uint64_t file_bytes = FileBytes(path);
  ASSERT_GT(file_bytes, 0u);

  GraphStore store;
  const size_t rss_before = StatmResidentBytes();
  const size_t tracked_before = MemoryTracker::Global().current_bytes();
  ASSERT_TRUE(store.LoadFromFile("big", path).ok());
  const size_t tracked_after = MemoryTracker::Global().current_bytes();
  const size_t rss_after = StatmResidentBytes();

  Result<GraphStore::SnapshotPtr> found = store.Find("big");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value()->mapped());
  EXPECT_EQ(found.value()->mapped_bytes(), file_bytes);
  EXPECT_EQ(found.value()->graph().NumEdges(), graph.NumEdges());
  // Content addressing survives the zero-copy path: the stored
  // fingerprint hint must equal the full-pass fingerprint.
  EXPECT_EQ(found.value()->fingerprint(), FingerprintSignedGraph(graph));

  // The acceptance bound: a cold mmap load must keep steady-state RSS
  // growth under 1.5x the on-disk CSR size (the copying reader adds a
  // full heap copy; the mapped load faults only header + offsets pages).
  const uint64_t budget = file_bytes + file_bytes / 2;
  EXPECT_LT(rss_after - rss_before, budget)
      << "rss grew " << (rss_after - rss_before) << " for a " << file_bytes
      << "-byte file";
  EXPECT_LT(tracked_after - tracked_before, budget);
  // List surfaces the mapping so `mbc_cli list` can show it.
  const std::vector<GraphStore::ListEntry> entries = store.List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].mapped);
  EXPECT_EQ(entries[0].mapped_bytes, file_bytes);
  std::remove(path.c_str());
}

TEST(GraphStoreMmapTest, LegacyV1LoadsViaCopyingReader) {
  const SignedGraph graph = Figure2Graph();
  const std::string path = TempGraphPath("store_v1.mbcg");
  BinaryWriteOptions v1;
  v1.version = 1;
  ASSERT_TRUE(WriteSignedGraphBinary(graph, path, v1).ok());
  GraphStore store;
  ASSERT_TRUE(store.LoadFromFile("old", path).ok());
  Result<GraphStore::SnapshotPtr> found = store.Find("old");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.value()->mapped());
  EXPECT_EQ(found.value()->graph().NumEdges(), graph.NumEdges());
  std::remove(path.c_str());
}

TEST(GraphStoreMmapTest, MappedAccountingSettlesOnEvict) {
  const SignedGraph graph = RandomSignedGraph(2000, 12000, 0.3, 21);
  const std::string path = TempGraphPath("store_mmap_settle.mbcg");
  ASSERT_TRUE(WriteSignedGraphBinary(graph, path).ok());
  const size_t baseline = MemoryTracker::Global().current_bytes();
  {
    GraphStore store;
    ASSERT_TRUE(store.LoadFromFile("m", path).ok());
    EXPECT_TRUE(store.Find("m").value()->mapped());
    ASSERT_TRUE(store.Evict("m").ok());
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), baseline);
  std::remove(path.c_str());
}

TEST(FingerprintTest, HasherIsDeterministicAndOrderSensitive) {
  Fnv1aHasher a;
  a.Mix(1);
  a.Mix(2);
  Fnv1aHasher b;
  b.Mix(2);
  b.Mix(1);
  Fnv1aHasher c;
  c.Mix(1);
  c.Mix(2);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), c.hash());
}

}  // namespace
}  // namespace mbc

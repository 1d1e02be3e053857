// Copyright 2026 The balanced-clique Authors.
//
// The service-layer acceptance bar: a 1000-query JSONL batch with a
// repeat-heavy mix must produce byte-identical output whether it runs on
// one worker or a pool, and the repeats must actually hit the cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/service/jsonl.h"
#include "src/service/query_service.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

constexpr uint32_t kNumGraphs = 3;
constexpr uint32_t kNumQueries = 1000;

SignedGraph MakeGraph(uint32_t g) {
  return RandomSignedGraph(30 + 5 * g, 180 + 40 * g, 0.45, 500 + g);
}

/// Builds the batch: a bounded pool of distinct (graph, kind, tau,
/// warm_start) shapes, cycled deterministically so well over half the
/// lines repeat an earlier shape.
std::string BuildBatch() {
  std::ostringstream batch;
  uint64_t state = 12345;
  for (uint32_t i = 0; i < kNumQueries; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // ~48 distinct shapes over 1000 queries => ~95% repeats.
    const uint32_t g = static_cast<uint32_t>((state >> 33) % kNumGraphs);
    const uint32_t pick = static_cast<uint32_t>((state >> 17) % 8);
    batch << "{\"id\":\"q" << i << "\",\"graph\":\"g" << g << "\"";
    if (pick < 5) {
      batch << ",\"kind\":\"mbc\",\"tau\":"
            << 1 + static_cast<uint32_t>((state >> 7) % 4);
      if (pick == 4) batch << ",\"warm_start\":true";
    } else if (pick == 5) {
      batch << ",\"kind\":\"pf\"";
    } else if (pick == 6) {
      batch << ",\"kind\":\"mbc_heu\",\"tau\":2";
    } else {
      batch << ",\"kind\":\"gmbc\"";
    }
    batch << "}\n";
  }
  return batch.str();
}

std::string RunBatch(const std::string& batch, size_t workers,
                     double* hit_rate) {
  ServiceOptions options;
  options.num_workers = workers;
  options.max_queue = 128;
  QueryService service(options);
  for (uint32_t g = 0; g < kNumGraphs; ++g) {
    std::string name = "g";
    name += std::to_string(g);
    EXPECT_TRUE(service.store().Load(name, MakeGraph(g)).ok());
  }
  std::istringstream in(batch);
  std::ostringstream out;
  JsonlOptions jsonl;
  jsonl.deterministic = true;
  EXPECT_TRUE(RunJsonlStream(service, in, out, jsonl).ok());
  if (hit_rate != nullptr) *hit_rate = service.Stats().cache.HitRate();
  return out.str();
}

TEST(BatchDeterminismTest, ThousandQueryBatchIsByteIdenticalAcrossPools) {
  const std::string batch = BuildBatch();

  double sequential_hit_rate = 0.0;
  const std::string sequential = RunBatch(batch, 1, &sequential_hit_rate);
  // Sanity on shape: one response line per request, all ok.
  size_t lines = 0;
  for (const char c : sequential) lines += c == '\n';
  ASSERT_EQ(lines, kNumQueries);
  EXPECT_EQ(sequential.find("\"ok\":false"), std::string::npos);

  double pooled_hit_rate = 0.0;
  const std::string pooled = RunBatch(batch, 4, &pooled_hit_rate);
  EXPECT_EQ(sequential, pooled);

  // The repeat-heavy mix must be served mostly from cache. Concurrent
  // identical queries can race past each other's insert, so the pooled
  // rate may dip slightly below the sequential one — both must clear the
  // acceptance bar.
  EXPECT_GE(sequential_hit_rate, 0.45) << "sequential";
  EXPECT_GE(pooled_hit_rate, 0.45) << "pooled";
}

TEST(BatchDeterminismTest, RerunningTheSameServiceIsAllHits) {
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("g0", MakeGraph(0)).ok());
  std::ostringstream batch;
  for (uint32_t tau = 1; tau <= 4; ++tau) {
    batch << "{\"graph\":\"g0\",\"kind\":\"mbc\",\"tau\":" << tau << "}\n";
  }
  JsonlOptions jsonl;
  jsonl.deterministic = true;
  std::istringstream first(batch.str());
  std::ostringstream out1;
  ASSERT_TRUE(RunJsonlStream(service, first, out1, jsonl).ok());
  const CacheStats after_first = service.Stats().cache;
  std::istringstream second(batch.str());
  std::ostringstream out2;
  ASSERT_TRUE(RunJsonlStream(service, second, out2, jsonl).ok());
  EXPECT_EQ(out1.str(), out2.str());
  // The second pass added no insertions and only hits.
  const CacheStats after_second = service.Stats().cache;
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_EQ(after_second.hits, after_first.hits + 4);
}

}  // namespace
}  // namespace mbc

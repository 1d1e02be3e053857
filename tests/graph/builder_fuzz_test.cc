// Copyright 2026 The balanced-clique Authors.
//
// Randomized differential test: SignedGraphBuilder + SignedGraph queried
// against a naive map-of-pairs reference model, over many random edge
// scripts including duplicates, and InducedSubgraph against the same
// model for ascending, shuffled, empty and full selections. Also adversarial byte-level cases for the
// binary reader: every malformed blob must come back as a clean Corruption
// status, never a crash or an attempted giant allocation.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fingerprint.h"
#include "src/common/random.h"
#include "src/graph/binary_io.h"
#include "src/graph/signed_graph_builder.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using EdgeKey = std::pair<VertexId, VertexId>;

TEST(BuilderFuzzTest, MatchesReferenceModel) {
  Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    const VertexId n = 3 + static_cast<VertexId>(rng.NextBounded(20));
    const int ops = 5 + static_cast<int>(rng.NextBounded(120));

    SignedGraphBuilder builder(n);
    builder.set_sign_conflict_policy(
        SignedGraphBuilder::SignConflictPolicy::kKeepNegative);
    std::map<EdgeKey, bool> reference;  // true = has a negative report

    for (int op = 0; op < ops; ++op) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      const Sign sign =
          rng.NextBernoulli(0.4) ? Sign::kNegative : Sign::kPositive;
      builder.AddEdge(u, v, sign);
      auto [it, inserted] =
          reference.emplace(EdgeKey{u, v}, sign == Sign::kNegative);
      if (!inserted) it->second |= (sign == Sign::kNegative);
    }

    const SignedGraph graph = std::move(builder).Build();
    // Edge-by-edge agreement.
    ASSERT_EQ(graph.NumEdges(), reference.size()) << "trial=" << trial;
    for (const auto& [key, negative] : reference) {
      EXPECT_EQ(graph.EdgeSign(key.first, key.second),
                negative ? Sign::kNegative : Sign::kPositive)
          << "trial=" << trial << " edge " << key.first << "," << key.second;
    }
    // Degree sums agree with the model.
    uint64_t degree_sum = 0;
    for (VertexId v = 0; v < n; ++v) degree_sum += graph.Degree(v);
    EXPECT_EQ(degree_sum, 2 * reference.size());
    // Adjacency sortedness invariant.
    for (VertexId v = 0; v < n; ++v) {
      const auto pos = graph.PositiveNeighbors(v);
      EXPECT_TRUE(std::is_sorted(pos.begin(), pos.end()));
      const auto neg = graph.NegativeNeighbors(v);
      EXPECT_TRUE(std::is_sorted(neg.begin(), neg.end()));
    }
  }
}

// The builder round trip InducedSubgraph once took: every kept edge
// through SignedGraphBuilder, which sorts the edges and each row. The CSR
// filter must produce the same bytes.
SignedGraph BuilderInduced(const SignedGraph& graph,
                           const std::vector<VertexId>& selection) {
  std::vector<VertexId> to_new(graph.NumVertices(), kInvalidVertex);
  for (size_t i = 0; i < selection.size(); ++i) {
    to_new[selection[i]] = static_cast<VertexId>(i);
  }
  SignedGraphBuilder builder(static_cast<VertexId>(selection.size()));
  graph.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    if (to_new[u] != kInvalidVertex && to_new[v] != kInvalidVertex) {
      builder.AddEdge(to_new[u], to_new[v], sign);
    }
  });
  return std::move(builder).Build();
}

// Checks InducedSubgraph(selection) edge by edge against the model: the
// id mapping, every edge's sign in both directions, sorted rows, and the
// fingerprint of the builder round trip.
void ExpectInducedMatchesModel(const SignedGraph& graph,
                               const std::map<EdgeKey, Sign>& reference,
                               const std::vector<VertexId>& selection,
                               const std::string& where) {
  const SignedGraph::InducedResult induced = graph.InducedSubgraph(selection);
  const SignedGraph& sub = induced.graph;
  ASSERT_EQ(sub.NumVertices(), selection.size()) << where;
  EXPECT_EQ(induced.to_original, selection) << where;
  std::vector<VertexId> to_new(graph.NumVertices(), kInvalidVertex);
  for (size_t i = 0; i < selection.size(); ++i) {
    to_new[selection[i]] = static_cast<VertexId>(i);
  }

  // Every model edge between selected vertices is present, with its sign.
  uint64_t expected = 0;
  for (const auto& [key, sign] : reference) {
    const VertexId a = to_new[key.first];
    const VertexId b = to_new[key.second];
    if (a == kInvalidVertex || b == kInvalidVertex) continue;
    ++expected;
    EXPECT_EQ(sub.EdgeSign(a, b), sign) << where;
    EXPECT_EQ(sub.EdgeSign(b, a), sign) << where;
  }
  EXPECT_EQ(sub.NumEdges(), expected) << where;
  // ... and every induced edge maps back to a model edge of that sign.
  sub.ForEachEdge([&](VertexId u, VertexId v, Sign sign) {
    VertexId a = induced.to_original[u];
    VertexId b = induced.to_original[v];
    if (a > b) std::swap(a, b);
    const auto it = reference.find({a, b});
    ASSERT_NE(it, reference.end()) << where << " edge " << u << "," << v;
    EXPECT_EQ(it->second, sign) << where << " edge " << u << "," << v;
  });
  for (VertexId v = 0; v < sub.NumVertices(); ++v) {
    const auto pos = sub.PositiveNeighbors(v);
    EXPECT_TRUE(std::is_sorted(pos.begin(), pos.end())) << where;
    const auto neg = sub.NegativeNeighbors(v);
    EXPECT_TRUE(std::is_sorted(neg.begin(), neg.end())) << where;
  }
  EXPECT_EQ(FingerprintSignedGraph(sub),
            FingerprintSignedGraph(BuilderInduced(graph, selection)))
      << where;
}

TEST(BuilderFuzzTest, InducedSubgraphMatchesModel) {
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 10 + static_cast<VertexId>(rng.NextBounded(20));
    SignedGraphBuilder builder(n);
    std::map<EdgeKey, Sign> reference;
    for (int op = 0; op < 80; ++op) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (reference.count({u, v})) continue;
      const Sign sign =
          rng.NextBernoulli(0.5) ? Sign::kNegative : Sign::kPositive;
      builder.AddEdge(u, v, sign);
      reference.emplace(EdgeKey{u, v}, sign);
    }
    const SignedGraph graph = std::move(builder).Build();

    std::vector<VertexId> ascending;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.5)) ascending.push_back(v);
    }
    std::vector<VertexId> shuffled = ascending;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::vector<VertexId> full(n);
    std::iota(full.begin(), full.end(), 0u);
    std::vector<VertexId> full_shuffled = full;
    std::shuffle(full_shuffled.begin(), full_shuffled.end(), rng);
    const std::string at = "trial=" + std::to_string(trial);
    ExpectInducedMatchesModel(graph, reference, ascending, at + " ascending");
    ExpectInducedMatchesModel(graph, reference, shuffled, at + " shuffled");
    ExpectInducedMatchesModel(graph, reference, {}, at + " empty");
    ExpectInducedMatchesModel(graph, reference, full, at + " full");
    ExpectInducedMatchesModel(graph, reference, full_shuffled,
                              at + " full shuffled");
  }
}

// A mapped (binary v2) graph reads its rows through the mapping; the
// induced copy is owned and equal to the one from the heap graph.
TEST(BuilderFuzzTest, InducedSubgraphOfMappedGraphMatchesModel) {
  Rng rng(808);
  const VertexId n = 60;
  SignedGraphBuilder builder(n);
  std::map<EdgeKey, Sign> reference;
  for (int op = 0; op < 500; ++op) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (reference.count({u, v})) continue;
    const Sign sign =
        rng.NextBernoulli(0.4) ? Sign::kNegative : Sign::kPositive;
    builder.AddEdge(u, v, sign);
    reference.emplace(EdgeKey{u, v}, sign);
  }
  const SignedGraph graph = std::move(builder).Build();
  const std::string path = ::testing::TempDir() + "/induced_mapped.mbcg";
  ASSERT_TRUE(WriteSignedGraphBinary(graph, path).ok());
  Result<SignedGraph> mapped = MmapSignedGraphBinary(path);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped.value().IsMapped());

  std::vector<VertexId> ascending;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextBernoulli(0.6)) ascending.push_back(v);
  }
  std::vector<VertexId> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const std::vector<VertexId>& selection : {ascending, shuffled}) {
    ExpectInducedMatchesModel(mapped.value(), reference, selection, "mapped");
    const SignedGraph::InducedResult from_mapped =
        mapped.value().InducedSubgraph(selection);
    EXPECT_FALSE(from_mapped.graph.IsMapped());
    EXPECT_EQ(FingerprintSignedGraph(from_mapped.graph),
              FingerprintSignedGraph(graph.InducedSubgraph(selection).graph));
  }
  std::remove(path.c_str());
}

// The two selection checks are MBC_CHECKs: they fire in every build type.
TEST(BuilderFuzzDeathTest, InducedSubgraphRejectsDuplicateId) {
  const SignedGraph graph = testing_util::RandomSignedGraph(8, 12, 0.5, 3);
  const std::vector<VertexId> selection = {1, 4, 1};
  EXPECT_DEATH(graph.InducedSubgraph(selection), "duplicate vertex");
}

TEST(BuilderFuzzDeathTest, InducedSubgraphRejectsOutOfRangeId) {
  const SignedGraph graph = testing_util::RandomSignedGraph(8, 12, 0.5, 3);
  const std::vector<VertexId> selection = {0, 8};
  EXPECT_DEATH(graph.InducedSubgraph(selection), "Check failed.*8 vs 8");
}

// --- Adversarial binary blobs -------------------------------------------
//
// These tests hand-build byte sequences in the MBCG v1 layout (magic,
// version, n, num_pos, num_neg, edge words, FNV-1a checksum) and corrupt
// them in targeted ways. The contract under test: ReadSignedGraphBinary
// rejects every malformed file with Status::Corruption and never crashes,
// over-reads, or allocates based on an unvalidated header field.

void AppendBytes(std::string* blob, const void* data, size_t bytes) {
  blob->append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendValue(std::string* blob, T value) {
  AppendBytes(blob, &value, sizeof(value));
}

uint64_t FuzzFnv1aMix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= 0x100000001b3ULL;
  return hash;
}

// A well-formed 4-vertex blob: + edges {0,1},{2,3}; - edge {0,2}.
std::string ValidBlob() {
  const std::vector<uint32_t> pos = {0, 1, 2, 3};
  const std::vector<uint32_t> neg = {0, 2};
  uint64_t checksum = 0xcbf29ce484222325ULL;
  checksum = FuzzFnv1aMix(checksum, 4);             // n
  checksum = FuzzFnv1aMix(checksum, pos.size() / 2);
  checksum = FuzzFnv1aMix(checksum, neg.size() / 2);
  for (uint32_t word : pos) checksum = FuzzFnv1aMix(checksum, word);
  for (uint32_t word : neg) checksum = FuzzFnv1aMix(checksum, word);

  std::string blob;
  AppendBytes(&blob, "MBCG", 4);
  AppendValue<uint32_t>(&blob, 1);                  // version
  AppendValue<uint32_t>(&blob, 4);                  // n
  AppendValue<uint64_t>(&blob, pos.size() / 2);
  AppendValue<uint64_t>(&blob, neg.size() / 2);
  for (uint32_t word : pos) AppendValue(&blob, word);
  for (uint32_t word : neg) AppendValue(&blob, word);
  AppendValue(&blob, checksum);
  return blob;
}

std::string WriteBlob(const std::string& name, const std::string& blob) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();
  return path;
}

TEST(BinaryBlobFuzzTest, ValidBlobRoundTrips) {
  const auto graph =
      ReadSignedGraphBinary(WriteBlob("blob_valid.mbcg", ValidBlob()));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumVertices(), 4u);
  EXPECT_EQ(graph.value().NumPositiveEdges(), 2u);
  EXPECT_EQ(graph.value().NumNegativeEdges(), 1u);
}

TEST(BinaryBlobFuzzTest, BadMagicAndVersionAreRejected) {
  std::string blob = ValidBlob();
  blob[0] = 'X';
  EXPECT_TRUE(ReadSignedGraphBinary(WriteBlob("blob_magic.mbcg", blob))
                  .status()
                  .IsCorruption());

  blob = ValidBlob();
  blob[4] = 99;  // version field
  EXPECT_TRUE(ReadSignedGraphBinary(WriteBlob("blob_version.mbcg", blob))
                  .status()
                  .IsCorruption());
}

TEST(BinaryBlobFuzzTest, EveryTruncationPointIsRejected) {
  const std::string blob = ValidBlob();
  // Chop the file at every byte boundary: empty file, partial magic,
  // partial header, partial edge words, missing checksum bytes.
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::string path =
        WriteBlob("blob_trunc.mbcg", blob.substr(0, len));
    const Status status = ReadSignedGraphBinary(path).status();
    EXPECT_TRUE(status.IsCorruption()) << "len=" << len << " got "
                                       << status.ToString();
  }
}

TEST(BinaryBlobFuzzTest, HugeEdgeCountsFailBeforeAllocation) {
  // A header claiming ~10^18 edges in a 50-byte file must be rejected by
  // the size check (or the overflow guard) without touching the counts.
  for (const uint64_t count :
       {uint64_t{1} << 60, UINT64_MAX, uint64_t{123456789012345}}) {
    std::string blob = ValidBlob();
    std::memcpy(&blob[12], &count, sizeof(count));  // num_pos field
    const Status status =
        ReadSignedGraphBinary(WriteBlob("blob_huge.mbcg", blob)).status();
    EXPECT_TRUE(status.IsCorruption()) << "count=" << count;
  }
}

TEST(BinaryBlobFuzzTest, PayloadCorruptionFailsChecksum) {
  std::string blob = ValidBlob();
  blob[28] ^= 0x40;  // flip a bit inside the first positive edge word
  const Status status =
      ReadSignedGraphBinary(WriteBlob("blob_payload.mbcg", blob)).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST(BinaryBlobFuzzTest, InvalidEdgesAreRejected) {
  // Out-of-range endpoint and self-loop, each with a recomputed checksum
  // so the edge validator (not the checksum) is what rejects them.
  const std::vector<std::vector<uint32_t>> bad_pos = {
      {0, 9, 2, 3},  // endpoint >= n
      {1, 1, 2, 3},  // self-loop
  };
  for (size_t i = 0; i < bad_pos.size(); ++i) {
    const std::vector<uint32_t>& pos = bad_pos[i];
    const std::vector<uint32_t> neg = {0, 2};
    uint64_t checksum = 0xcbf29ce484222325ULL;
    checksum = FuzzFnv1aMix(checksum, 4);
    checksum = FuzzFnv1aMix(checksum, pos.size() / 2);
    checksum = FuzzFnv1aMix(checksum, neg.size() / 2);
    for (uint32_t word : pos) checksum = FuzzFnv1aMix(checksum, word);
    for (uint32_t word : neg) checksum = FuzzFnv1aMix(checksum, word);
    std::string blob;
    AppendBytes(&blob, "MBCG", 4);
    AppendValue<uint32_t>(&blob, 1);
    AppendValue<uint32_t>(&blob, 4);
    AppendValue<uint64_t>(&blob, pos.size() / 2);
    AppendValue<uint64_t>(&blob, neg.size() / 2);
    for (uint32_t word : pos) AppendValue(&blob, word);
    for (uint32_t word : neg) AppendValue(&blob, word);
    AppendValue(&blob, checksum);
    const Status status =
        ReadSignedGraphBinary(WriteBlob("blob_edge.mbcg", blob)).status();
    EXPECT_TRUE(status.IsCorruption()) << "case=" << i;
    EXPECT_NE(status.message().find("edge"), std::string::npos)
        << status.ToString();
  }
}

TEST(BinaryBlobFuzzTest, TrailingGarbageIsRejected) {
  std::string blob = ValidBlob();
  blob += "extra bytes after checksum";
  EXPECT_TRUE(ReadSignedGraphBinary(WriteBlob("blob_trail.mbcg", blob))
                  .status()
                  .IsCorruption());
}

TEST(BinaryBlobFuzzTest, RandomByteFlipsNeverCrash) {
  Rng rng(4242);
  const std::string valid = ValidBlob();
  for (int trial = 0; trial < 200; ++trial) {
    std::string blob = valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t at = rng.NextBounded(blob.size());
      blob[at] = static_cast<char>(blob[at] ^
                                   (1u << rng.NextBounded(8)));
    }
    // Any outcome is fine as long as it is a clean Status (mutations can
    // cancel out or hit ignored padding); no crash, no bad allocation.
    const auto result =
        ReadSignedGraphBinary(WriteBlob("blob_flip.mbcg", blob));
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsCorruption() ||
                  result.status().IsIOError())
          << result.status().ToString();
    }
  }
}

}  // namespace
}  // namespace mbc

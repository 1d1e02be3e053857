// Copyright 2026 The balanced-clique Authors.
#include "src/service/jsonl.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;

TEST(JsonlParseTest, ParsesFlatObject) {
  Result<JsonlFields> fields = ParseJsonlLine(
      R"({"op":"query","graph":"g","tau":3,"no_cache":true})");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields.value().at("op"), "query");
  EXPECT_EQ(fields.value().at("graph"), "g");
  EXPECT_EQ(fields.value().at("tau"), "3");
  EXPECT_EQ(fields.value().at("no_cache"), "true");
}

TEST(JsonlParseTest, DecodesStringEscapes) {
  Result<JsonlFields> fields =
      ParseJsonlLine(R"({"id":"a\"b\\c\nd\te"})");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value().at("id"), "a\"b\\c\nd\te");
}

TEST(JsonlParseTest, ToleratesWhitespaceAndEmptyObject) {
  EXPECT_TRUE(ParseJsonlLine("  { \"a\" : 1 , \"b\" : \"x\" }  ").ok());
  Result<JsonlFields> empty = ParseJsonlLine("{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(JsonlParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                           // not an object
      "42",                         // not an object
      R"({"a":1)",                  // unterminated
      R"({"a":1} trailing)",        // trailing garbage
      R"({"a":{"nested":1}})",      // nested object
      R"({"a":[1,2]})",             // nested array
      R"({"a":1,"a":2})",           // duplicate key
      R"({a:1})",                   // unquoted key
      R"({"a" 1})",                 // missing colon
      R"({"a":"unterminated})",     // unterminated string
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseJsonlLine(line).ok()) << line;
  }
}

TEST(JsonlParseTest, BuildsQueryRequest) {
  Result<JsonlFields> fields = ParseJsonlLine(
      R"({"id":"q7","graph":"g","kind":"pf","algo":"star",)"
      R"("time_limit_seconds":1.5,"memory_limit_mb":64,"no_cache":true})");
  ASSERT_TRUE(fields.ok());
  Result<QueryRequest> request = QueryRequestFromFields(fields.value());
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().id, "q7");
  EXPECT_EQ(request.value().graph, "g");
  EXPECT_EQ(request.value().kind, QueryKind::kPf);
  EXPECT_DOUBLE_EQ(request.value().time_limit_seconds, 1.5);
  EXPECT_EQ(request.value().memory_limit_mb, 64u);
  EXPECT_TRUE(request.value().no_cache);
}

// "algo" may name the kind's one engine, before or after "kind".
TEST(JsonlParseTest, AcceptsEachKindsOneEngine) {
  const std::pair<const char*, QueryKind> engines[] = {
      {R"("kind":"mbc","algo":"star")", QueryKind::kMbc},
      {R"("algo":"star","kind":"mbc")", QueryKind::kMbc},
      {R"("kind":"pf","algo":"star")", QueryKind::kPf},
      {R"("algo":"star","kind":"pf")", QueryKind::kPf},
      {R"("kind":"gmbc","algo":"star")", QueryKind::kGmbc},
      {R"("algo":"star","kind":"gmbc")", QueryKind::kGmbc},
      {R"("kind":"mbc_heu","algo":"heu")", QueryKind::kMbcHeu},
      {R"("algo":"heu","kind":"mbc_heu")", QueryKind::kMbcHeu},
      {R"("kind":"mbc_tol","algo":"tol")", QueryKind::kMbcTol},
      {R"("algo":"tol","kind":"mbc_tol")", QueryKind::kMbcTol},
      {R"("algo":"star")", QueryKind::kMbc},  // kind defaults to mbc
  };
  for (const auto& [body, kind] : engines) {
    const std::string line = std::string(R"({"graph":"g",)") + body + "}";
    Result<JsonlFields> fields = ParseJsonlLine(line);
    ASSERT_TRUE(fields.ok()) << line;
    Result<QueryRequest> request = QueryRequestFromFields(fields.value());
    ASSERT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    EXPECT_EQ(request.value().kind, kind) << line;
  }
}

// The paper baselines, the parallel engine's cache label and any other
// spelling are not served: invalid_argument, pointing at mbc_cli.
TEST(JsonlParseTest, RejectsAnyAlgoButTheKindsEngine) {
  const char* bad[] = {
      R"({"graph":"g","kind":"mbc","algo":"adv"})",
      R"({"graph":"g","algo":"adv","kind":"mbc"})",
      R"({"graph":"g","kind":"mbc","algo":"baseline"})",
      R"({"graph":"g","algo":"baseline","parallel_threads":2})",
      R"({"graph":"g","kind":"pf","algo":"bs"})",
      R"({"graph":"g","algo":"bs","kind":"pf"})",
      R"({"graph":"g","kind":"gmbc","algo":"basic"})",
      R"({"graph":"g","kind":"mbc","algo":"parallel"})",
      R"({"graph":"g","algo":"parallel","parallel_threads":2})",
      R"({"graph":"g","kind":"mbc","algo":"quantum"})",
      R"({"graph":"g","kind":"mbc","algo":"heu"})",
      R"({"graph":"g","algo":"heu"})",
      R"({"graph":"g","kind":"mbc_heu","algo":"star"})",
      R"({"graph":"g","kind":"mbc_tol","algo":"heu"})",
      R"({"graph":"g","kind":"mbc","algo":""})",
  };
  for (const char* line : bad) {
    Result<JsonlFields> fields = ParseJsonlLine(line);
    ASSERT_TRUE(fields.ok()) << line;
    Result<QueryRequest> request = QueryRequestFromFields(fields.value());
    ASSERT_FALSE(request.ok()) << line;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(request.status().message().find("mbc_cli"), std::string::npos)
        << line << ": " << request.status().message();
  }
}

TEST(JsonlParseTest, ParsesParallelThreadsAndWitnesses) {
  Result<JsonlFields> fields = ParseJsonlLine(
      R"({"graph":"g","parallel_threads":4,"witnesses":true})");
  ASSERT_TRUE(fields.ok());
  Result<QueryRequest> request = QueryRequestFromFields(fields.value());
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().parallel_threads, 4u);
  EXPECT_TRUE(request.value().witnesses);
  // Both default off.
  Result<JsonlFields> plain = ParseJsonlLine(R"({"graph":"g"})");
  ASSERT_TRUE(plain.ok());
  Result<QueryRequest> defaults = QueryRequestFromFields(plain.value());
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().parallel_threads, 0u);
  EXPECT_FALSE(defaults.value().witnesses);
}

TEST(JsonlParseTest, RejectsBadQueryFields) {
  const char* bad[] = {
      R"({"graph":"g","kind":"mbk"})",             // unknown kind
      R"({"graph":"g","tau":-1})",                 // negative tau
      R"({"graph":"g","tau":"many"})",             // non-numeric tau
      R"({"graph":"g","no_cache":"yes"})",         // non-boolean
      R"({"graph":"g","time_limit_seconds":-2})",  // negative budget
      R"({"graph":"g","taau":3})",                 // typo must not pass
      R"({"kind":"mbc"})",                         // missing graph
      R"({"graph":"g","parallel_threads":-1})",    // negative
      R"({"graph":"g","parallel_threads":257})",   // over the cap
      R"({"graph":"g","parallel_threads":"x"})",   // non-numeric
      R"({"graph":"g","witnesses":"yes"})",        // non-boolean
  };
  for (const char* line : bad) {
    Result<JsonlFields> fields = ParseJsonlLine(line);
    ASSERT_TRUE(fields.ok()) << line;
    EXPECT_FALSE(QueryRequestFromFields(fields.value()).ok()) << line;
  }
}

TEST(JsonlSerializeTest, DeterministicModeOmitsTimingFields) {
  QueryRequest request;
  request.id = "q1";
  request.kind = QueryKind::kMbc;
  request.tau = 2;
  QueryResponse response;
  response.id = "q1";
  response.result.clique.left = {1, 2};
  response.result.clique.right = {3};
  response.cached = true;
  response.seconds = 0.25;

  JsonlOptions normal;
  const std::string with_timing = SerializeResponse(request, response, normal);
  EXPECT_NE(with_timing.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(with_timing.find("\"seconds\":"), std::string::npos);

  JsonlOptions deterministic;
  deterministic.deterministic = true;
  const std::string stable =
      SerializeResponse(request, response, deterministic);
  EXPECT_EQ(stable,
            R"({"id":"q1","ok":true,"kind":"mbc","tau":2,"size":3,)"
            R"("left":[1,2],"right":[3]})");
}

TEST(JsonlSerializeTest, ErrorsCarryCodeAndEscapedMessage) {
  QueryRequest request;
  QueryResponse response;
  response.id = "bad";
  response.status = Status::NotFound("graph \"x\" is not loaded");
  const std::string line = SerializeResponse(request, response, {});
  EXPECT_EQ(line,
            R"({"id":"bad","ok":false,"error":"not_found",)"
            R"("message":"graph \"x\" is not loaded"})");
}

TEST(JsonlStreamTest, RunsAFullSession) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  std::istringstream in(
      "# comment and blank lines are skipped\n"
      "\n"
      "{\"id\":\"q1\",\"graph\":\"fig2\",\"tau\":2}\n"
      "{\"id\":\"q2\",\"graph\":\"fig2\",\"kind\":\"pf\"}\n"
      "{\"id\":\"q3\",\"graph\":\"nope\"}\n"
      "{\"op\":\"list\"}\n"
      "{\"op\":\"evict\",\"name\":\"fig2\"}\n"
      "{\"id\":\"q4\",\"graph\":\"fig2\"}\n"
      "not json\n");
  std::ostringstream out;
  JsonlOptions options;
  options.deterministic = true;
  ASSERT_TRUE(RunJsonlStream(service, in, out, options).ok());

  std::vector<std::string> lines;
  std::istringstream result(out.str());
  std::string line;
  while (std::getline(result, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u) << out.str();
  EXPECT_EQ(lines[0],
            R"({"id":"q1","ok":true,"kind":"mbc","tau":2,"size":6,)"
            R"("left":[2,3,4],"right":[5,6,7]})");
  EXPECT_EQ(lines[1], R"({"id":"q2","ok":true,"kind":"pf","beta":3})");
  EXPECT_NE(lines[2].find("\"id\":\"q3\",\"ok\":false,\"error\":"
                          "\"not_found\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("\"graphs\":[{\"name\":\"fig2\""),
            std::string::npos);
  EXPECT_NE(lines[4].find("\"ok\":true,\"name\":\"fig2\""),
            std::string::npos);
  // q4 ran after the evict barrier, so the graph is gone.
  EXPECT_NE(lines[5].find("\"error\":\"not_found\""), std::string::npos);
  EXPECT_NE(lines[6].find("\"error\":\"invalid_argument\""),
            std::string::npos);
}

TEST(JsonlStreamTest, LoadOpRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "/jsonl_fig2.txt";
  {
    // Write Figure 2 as an edge list the load op can read back.
    std::ofstream file(path);
    ASSERT_TRUE(file.is_open());
    const SignedGraph graph = Figure2Graph();
    for (VertexId u = 0; u < graph.NumVertices(); ++u) {
      for (VertexId v : graph.PositiveNeighbors(u)) {
        if (u < v) file << u << " " << v << " 1\n";
      }
      for (VertexId v : graph.NegativeNeighbors(u)) {
        if (u < v) file << u << " " << v << " -1\n";
      }
    }
  }
  QueryService service;
  std::istringstream in("{\"op\":\"load\",\"name\":\"g\",\"path\":\"" + path +
                        "\"}\n"
                        "{\"id\":\"q\",\"graph\":\"g\",\"tau\":2}\n");
  std::ostringstream out;
  JsonlOptions options;
  options.deterministic = true;
  ASSERT_TRUE(RunJsonlStream(service, in, out, options).ok());
  EXPECT_NE(out.str().find("\"vertices\":8"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("\"size\":6"), std::string::npos) << out.str();
}

TEST(JsonlSerializeTest, GmbcWitnessesSerializeOnlyOnRequest) {
  QueryRequest request;
  request.id = "g1";
  request.kind = QueryKind::kGmbc;
  QueryResponse response;
  response.id = "g1";
  response.result.beta = 1;
  response.result.gmbc_sizes = {4, 2};
  BalancedClique tau0;
  tau0.left = {0, 1};
  tau0.right = {2, 3};
  BalancedClique tau1;
  tau1.left = {0};
  tau1.right = {2};
  response.result.gmbc_cliques = {tau0, tau1};

  JsonlOptions deterministic;
  deterministic.deterministic = true;
  const std::string without =
      SerializeResponse(request, response, deterministic);
  EXPECT_EQ(without.find("\"cliques\""), std::string::npos) << without;
  EXPECT_NE(without.find("\"sizes\":[4,2]"), std::string::npos) << without;

  request.witnesses = true;
  const std::string with = SerializeResponse(request, response, deterministic);
  EXPECT_NE(
      with.find(
          R"("cliques":[{"left":[0,1],"right":[2,3]},{"left":[0],"right":[2]}])"),
      std::string::npos)
      << with;
}

}  // namespace
}  // namespace mbc

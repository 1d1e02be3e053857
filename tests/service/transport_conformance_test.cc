// Copyright 2026 The balanced-clique Authors.
//
// Protocol conformance across transports: the same JSONL batch — queries,
// control-op barriers, parse errors, unknown fields, comments, blank
// lines, an oversized line, a not-found graph — must produce
// byte-identical responses whether it runs over the blocking stdio
// transport or a loopback TCP connection, on one worker or four. The
// batch exercises the per-session ordering rules: a load must be visible
// to the query after it, an evict must hide the graph from the query
// after it, and responses come back strictly in request order.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/service/jsonl.h"
#include "src/service/query_service.h"
#include "src/service/transport.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::RandomSignedGraph;

constexpr size_t kMaxLineBytes = 512;

std::string GraphFile(uint32_t g) {
  // Pid-unique path: under `ctest -j` every TEST_P instance is its own
  // process, and concurrent processes rewriting one shared file race a
  // reader into a partially-written graph.
  const std::string path = ::testing::TempDir() + "/conformance_g" +
                           std::to_string(g) + "." +
                           std::to_string(::getpid()) + ".txt";
  static bool written[2] = {false, false};
  if (!written[g]) {
    const SignedGraph graph =
        RandomSignedGraph(24 + 6 * g, 120 + 30 * g, 0.4, 900 + g);
    EXPECT_TRUE(WriteSignedEdgeList(graph, path).ok());
    written[g] = true;
  }
  return path;
}

/// The golden batch: every protocol feature in one stream, with barrier
/// ordering dependencies baked in (load → query → evict → not_found).
std::string BuildBatch() {
  std::ostringstream batch;
  batch << "# transport conformance batch\n";
  batch << "\n";
  batch << "{\"op\":\"load\",\"name\":\"a\",\"path\":\"" << GraphFile(0)
        << "\"}\n";
  batch << "{\"op\":\"load\",\"name\":\"b\",\"path\":\"" << GraphFile(1)
        << "\"}\n";
  batch << "{\"op\":\"list\"}\n";
  for (uint32_t i = 0; i < 24; ++i) {
    const char* graph = (i % 3 == 0) ? "b" : "a";
    batch << "{\"id\":\"q" << i << "\",\"graph\":\"" << graph << "\"";
    switch (i % 4) {
      case 0:
        batch << ",\"kind\":\"mbc\",\"tau\":" << 1 + i % 3;
        break;
      case 1:
        batch << ",\"kind\":\"pf\"";
        break;
      case 2:
        batch << ",\"kind\":\"gmbc\"";
        break;
      default:
        batch << ",\"kind\":\"mbc_heu\",\"tau\":3";
        break;
    }
    batch << "}\n";
  }
  // Error paths, all answered in order with exactly one frame each.
  batch << "{\"id\":\"bad1\",\"graph\":\"nope\",\"kind\":\"mbc\","
           "\"tau\":3}\n";                                  // not_found
  batch << "{\"id\":\"bad2\",\"graph\":\"a\",\"weird\":1}\n";  // unknown
  batch << "not json at all\n";                                // parse
  batch << "{\"id\":\"big\",\"graph\":\"a\",\"pad\":\""
        << std::string(2 * kMaxLineBytes, 'x') << "\"}\n";     // oversized
  // Barrier semantics: evict between two queries of the same graph.
  batch << "{\"id\":\"before\",\"graph\":\"b\",\"kind\":\"pf\"}\n";
  batch << "{\"op\":\"evict\",\"name\":\"b\"}\n";
  batch << "{\"id\":\"after\",\"graph\":\"b\",\"kind\":\"pf\"}\n";
  // The heuristic / tolerant tier: a heuristic answer (tagged inexact on
  // the wire), a tolerant answer (reports its frustration), a tolerance
  // on a non-tolerant kind (rejected), warm_start on a non-mbc kind
  // (rejected), and a warm-started exact query (same answer as cold).
  batch << "{\"id\":\"h1\",\"graph\":\"a\",\"kind\":\"mbc_heu\","
           "\"tau\":2}\n";
  batch << "{\"id\":\"t1\",\"graph\":\"a\",\"kind\":\"mbc_tol\","
           "\"tau\":2,\"tolerance\":2}\n";
  batch << "{\"id\":\"badtol\",\"graph\":\"a\",\"kind\":\"mbc\","
           "\"tau\":2,\"tolerance\":1}\n";
  batch << "{\"id\":\"badwarm\",\"graph\":\"a\",\"kind\":\"pf\","
           "\"warm_start\":true}\n";
  batch << "{\"id\":\"w1\",\"graph\":\"a\",\"kind\":\"mbc\",\"tau\":2,"
           "\"warm_start\":true}\n";
  return batch.str();
}

JsonlOptions DeterministicOptions() {
  JsonlOptions jsonl;
  jsonl.deterministic = true;
  jsonl.max_line_bytes = kMaxLineBytes;
  return jsonl;
}

std::string RunViaStdio(const std::string& batch, size_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  QueryService service(options);
  std::istringstream in(batch);
  std::ostringstream out;
  StdioTransport transport(in, out);
  EXPECT_TRUE(transport.Serve(service, DeterministicOptions()).ok());
  return out.str();
}

std::string RunViaSocket(const std::string& batch, size_t workers) {
  SocketServer server(SocketServerOptions{});
  EXPECT_TRUE(server.Start().ok());
  ServiceOptions options;
  options.num_workers = workers;
  options.on_task_complete = [&server] { server.Wake(); };
  QueryService service(options);
  std::thread serving(
      [&] { EXPECT_TRUE(server.Serve(service, DeterministicOptions()).ok()); });
  std::istringstream in(batch);
  std::ostringstream out;
  const Status status =
      RunJsonlSocketClient("127.0.0.1", server.port(), in, out);
  server.RequestDrain();
  serving.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  // The transport counted this connection in and out.
  const TransportStats transport = service.Stats().transport;
  EXPECT_EQ(transport.connections_accepted, 1u);
  EXPECT_EQ(transport.connections_active, 0);
  EXPECT_GT(transport.frames_in, 0u);
  EXPECT_EQ(transport.frames_in, transport.frames_out);
  return out.str();
}

struct Variant {
  const char* name;
  std::string (*run)(const std::string&, size_t);
  size_t workers;
};

class TransportConformanceTest : public ::testing::TestWithParam<Variant> {};

TEST_P(TransportConformanceTest, MatchesSingleWorkerStdioReference) {
  const std::string batch = BuildBatch();
  const std::string reference = RunViaStdio(batch, 1);

  // Shape sanity on the reference itself before comparing against it:
  // every request line got exactly one response frame, in request order.
  std::vector<std::string> lines;
  std::istringstream splitter(reference);
  for (std::string line; std::getline(splitter, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u + 1u + 24u + 4u + 3u + 5u);
  EXPECT_NE(lines[2].find("\"graphs\":["), std::string::npos);
  for (uint32_t i = 0; i < 24; ++i) {
    EXPECT_NE(lines[3 + i].find("\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[3 + i];
    EXPECT_NE(lines[3 + i].find("\"ok\":true"), std::string::npos);
  }
  EXPECT_NE(lines[27].find("\"error\":\"not_found\""), std::string::npos);
  EXPECT_NE(lines[28].find("\"error\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[29].find("\"error\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[30].find("frame limit"), std::string::npos);
  EXPECT_NE(lines[31].find("\"id\":\"before\""), std::string::npos);
  EXPECT_NE(lines[31].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[33].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(lines[33].find("\"error\":\"not_found\""), std::string::npos);
  EXPECT_NE(lines[34].find("\"id\":\"h1\""), std::string::npos);
  EXPECT_NE(lines[34].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[34].find("\"exact\":false"), std::string::npos);
  EXPECT_NE(lines[35].find("\"id\":\"t1\""), std::string::npos);
  EXPECT_NE(lines[35].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[35].find("\"frustrated\":"), std::string::npos);
  EXPECT_NE(lines[36].find("\"id\":\"badtol\""), std::string::npos);
  EXPECT_NE(lines[36].find("\"error\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[37].find("\"id\":\"badwarm\""), std::string::npos);
  EXPECT_NE(lines[37].find("\"error\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[38].find("\"id\":\"w1\""), std::string::npos);
  EXPECT_NE(lines[38].find("\"ok\":true"), std::string::npos);

  const Variant variant = GetParam();
  EXPECT_EQ(variant.run(batch, variant.workers), reference) << variant.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformanceTest,
    ::testing::Values(Variant{"stdio_1w", RunViaStdio, 1},
                      Variant{"stdio_4w", RunViaStdio, 4},
                      Variant{"socket_1w", RunViaSocket, 1},
                      Variant{"socket_4w", RunViaSocket, 4}),
    [](const ::testing::TestParamInfo<Variant>& param_info) {
      return std::string(param_info.param.name);
    });

// Exactness-tag cache isolation: a heuristic answer is cached under the
// degraded exactness tag (and its own algo label), so an exact query for
// the same (graph, kind-family, tau) must miss the cache and run the
// exact engine — and vice versa. Likewise tolerant entries are keyed per
// budget.
TEST(TransportConformanceTest, HeuristicCacheEntriesNeverAnswerExactQueries) {
  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(options);
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(60, 500, 0.4, 77)).ok());

  QueryRequest heu;
  heu.graph = "g";
  heu.kind = QueryKind::kMbcHeu;
  heu.tau = 2;
  ASSERT_TRUE(service.Query(heu).status.ok());
  const CacheStats after_heu = service.Stats().cache;
  EXPECT_EQ(after_heu.hits, 0u);
  EXPECT_EQ(after_heu.degraded_insertions, 1u);

  // The exact query must not be served from the heuristic's entry.
  QueryRequest exact;
  exact.graph = "g";
  exact.kind = QueryKind::kMbc;
  exact.tau = 2;
  QueryResponse exact_response = service.Query(exact);
  ASSERT_TRUE(exact_response.status.ok());
  EXPECT_FALSE(exact_response.cached);
  EXPECT_EQ(service.Stats().cache.hits, 0u);

  // Re-asking each kind hits its own entry; the answers stay distinct
  // keys even when the cliques coincide.
  EXPECT_TRUE(service.Query(heu).cached);
  EXPECT_TRUE(service.Query(exact).cached);

  // Tolerant entries are keyed per budget: a different tolerance misses.
  QueryRequest tol;
  tol.graph = "g";
  tol.kind = QueryKind::kMbcTol;
  tol.tau = 2;
  tol.tolerance = 1;
  ASSERT_TRUE(service.Query(tol).status.ok());
  EXPECT_TRUE(service.Query(exact).cached);  // exact entry undisturbed
  QueryRequest tol2 = tol;
  tol2.tolerance = 2;
  QueryResponse tol2_response = service.Query(tol2);
  ASSERT_TRUE(tol2_response.status.ok());
  EXPECT_FALSE(tol2_response.cached);
  EXPECT_TRUE(service.Query(tol).cached);

  // A warm-started exact run caches under its own "+warm" label (the
  // sequential engine's witness may differ), so it misses the cold entry.
  QueryRequest warm = exact;
  warm.warm_start = true;
  QueryResponse warm_response = service.Query(warm);
  ASSERT_TRUE(warm_response.status.ok());
  EXPECT_FALSE(warm_response.cached);
  EXPECT_EQ(warm_response.result.clique.size(),
            exact_response.result.clique.size());
  EXPECT_TRUE(service.Query(warm).cached);
}

// Two sequential connections to one server: sessions are independent
// (each gets its own barrier pipeline) but share the worker pool and
// cache, and the per-connection counters add up.
TEST(TransportConformanceTest, SequentialConnectionsShareOneService) {
  SocketServer server(SocketServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ServiceOptions options;
  options.num_workers = 2;
  options.on_task_complete = [&server] { server.Wake(); };
  QueryService service(options);
  std::thread serving(
      [&] { EXPECT_TRUE(server.Serve(service, DeterministicOptions()).ok()); });

  // BuildBatch evicts only "b"; evict "a" too so a second connection
  // replaying the batch sees the same store state as the first.
  const std::string batch = BuildBatch() + "{\"op\":\"evict\",\"name\":\"a\"}\n";
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    std::istringstream in(batch);
    std::ostringstream sink;
    ASSERT_TRUE(
        RunJsonlSocketClient("127.0.0.1", server.port(), in, sink).ok());
    *out = sink.str();
  }
  server.RequestDrain();
  serving.join();

  EXPECT_EQ(first, second);  // deterministic mode hides cache hits
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.transport.connections_accepted, 2u);
  EXPECT_EQ(stats.transport.connections_active, 0);
  EXPECT_GT(stats.cache.hits, 0u);  // second run was served from cache
}

// The admission bound: with max_connections = 1, a second concurrent
// client is answered with exactly one resource_exhausted frame, then
// closed, while the first connection keeps working.
TEST(TransportConformanceTest, OverLimitConnectionGetsOneErrorFrame) {
  SocketServerOptions socket_options;
  socket_options.max_connections = 1;
  SocketServer server(socket_options);
  ASSERT_TRUE(server.Start().ok());
  ServiceOptions options;
  options.num_workers = 1;
  options.on_task_complete = [&server] { server.Wake(); };
  QueryService service(options);
  std::thread serving(
      [&] { EXPECT_TRUE(server.Serve(service, DeterministicOptions()).ok()); });

  // The occupier connects first (and is therefore first in the accept
  // queue), holds its slot without sending EOF, and only closes after
  // the over-limit probe has been turned away.
  const int occupier = testing_util::ConnectLoopback(server.port());
  ASSERT_GE(occupier, 0);
  const int probe = testing_util::ConnectLoopback(server.port());
  ASSERT_GE(probe, 0);
  const std::string rejection = testing_util::RecvAll(probe);
  EXPECT_NE(rejection.find("\"error\":\"resource_exhausted\""),
            std::string::npos)
      << rejection;
  EXPECT_NE(rejection.find("connection limit"), std::string::npos);
  // Exactly one frame: one trailing newline, no second line.
  ASSERT_FALSE(rejection.empty());
  EXPECT_EQ(rejection.find('\n'), rejection.size() - 1);

  // The occupier's slot still works after the rejection.
  const std::string request = "{\"op\":\"list\"}\n";
  ASSERT_TRUE(testing_util::SendAll(occupier, request));
  ::shutdown(occupier, SHUT_WR);
  const std::string response = testing_util::RecvAll(occupier);
  EXPECT_NE(response.find("\"graphs\":["), std::string::npos) << response;
  ::close(occupier);
  ::close(probe);

  server.RequestDrain();
  serving.join();
  const TransportStats stats = service.Stats().transport;
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_rejected, 1u);
  EXPECT_EQ(stats.connections_active, 0);
}

// An idle connection is closed after the timeout with one cancelled
// frame; a connection with traffic stays alive.
TEST(TransportConformanceTest, IdleConnectionIsTimedOut) {
  SocketServerOptions socket_options;
  socket_options.idle_timeout_seconds = 0.1;
  SocketServer server(socket_options);
  ASSERT_TRUE(server.Start().ok());
  ServiceOptions options;
  options.num_workers = 1;
  options.on_task_complete = [&server] { server.Wake(); };
  QueryService service(options);
  std::thread serving(
      [&] { EXPECT_TRUE(server.Serve(service, DeterministicOptions()).ok()); });

  const int idler = testing_util::ConnectLoopback(server.port());
  ASSERT_GE(idler, 0);
  // RecvAll blocks until the server closes the connection — which it may
  // only do after the idle timeout fires and the cancelled frame flushes.
  const std::string frame = testing_util::RecvAll(idler);
  EXPECT_NE(frame.find("\"error\":\"cancelled\""), std::string::npos)
      << frame;
  EXPECT_NE(frame.find("idle timeout"), std::string::npos);
  ::close(idler);

  server.RequestDrain();
  serving.join();
}

}  // namespace
}  // namespace mbc

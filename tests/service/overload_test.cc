// Copyright 2026 The balanced-clique Authors.
//
// Overload resilience: token buckets, the overload state machine,
// deadline propagation and queue shedding, brownout degradation with
// cache-tier separation, session quotas, and the JSONL error-code /
// stats surface of all of the above.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/mbc_heu.h"
#include "src/core/verify.h"
#include "src/datasets/families.h"
#include "src/service/degraded.h"
#include "src/service/jsonl.h"
#include "src/service/overload.h"
#include "src/service/query_service.h"
#include "src/service/session.h"
#include "tests/test_util.h"

namespace mbc {
namespace {

using testing_util::Figure2Graph;
using testing_util::RandomSignedGraph;

QueryRequest MbcRequest(const std::string& graph, uint32_t tau,
                        const std::string& id = "q") {
  QueryRequest request;
  request.id = id;
  request.graph = graph;
  request.kind = QueryKind::kMbc;
  request.tau = tau;
  return request;
}

// ---------------------------------------------------------------------------
// TokenBucket

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(2.0, 3.0);
  const auto t0 = TokenBucket::Clock::now();
  EXPECT_TRUE(bucket.TryAcquireAt(t0));
  EXPECT_TRUE(bucket.TryAcquireAt(t0));
  EXPECT_TRUE(bucket.TryAcquireAt(t0));
  EXPECT_FALSE(bucket.TryAcquireAt(t0));
  // 2 tokens/s: after 500ms exactly one token has accrued.
  const auto t1 = t0 + std::chrono::milliseconds(500);
  EXPECT_TRUE(bucket.TryAcquireAt(t1));
  EXPECT_FALSE(bucket.TryAcquireAt(t1));
}

TEST(TokenBucketTest, BurstCapsAccrual) {
  TokenBucket bucket(1000.0, 2.0);
  const auto t0 = TokenBucket::Clock::now();
  // An hour of idle accrual still holds only `burst` tokens.
  const auto t1 = t0 + std::chrono::hours(1);
  EXPECT_TRUE(bucket.TryAcquireAt(t1));
  EXPECT_TRUE(bucket.TryAcquireAt(t1));
  EXPECT_FALSE(bucket.TryAcquireAt(t1));
}

TEST(TokenBucketTest, BurstBelowOneStillAdmitsOneQuery) {
  TokenBucket bucket(0.001, 0.0);  // burst clamps to 1.0
  EXPECT_GE(bucket.burst(), 1.0);
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

// ---------------------------------------------------------------------------
// OverloadMonitor

OverloadPolicy TestPolicy() {
  OverloadPolicy policy;
  policy.enabled = true;
  policy.shed_queue_fraction = 0.5;
  policy.brownout_queue_fraction = 0.85;
  policy.recover_queue_fraction = 0.25;
  return policy;
}

TEST(OverloadMonitorTest, EscalatesAndRecoversWithHysteresis) {
  OverloadMonitor monitor(TestPolicy(), nullptr);
  EXPECT_EQ(monitor.Update(0, 100), OverloadState::kNormal);
  EXPECT_EQ(monitor.Update(49, 100), OverloadState::kNormal);
  EXPECT_EQ(monitor.Update(50, 100), OverloadState::kShedding);
  // Between recover (25) and shed (50): sticky, no recovery yet.
  EXPECT_EQ(monitor.Update(40, 100), OverloadState::kShedding);
  EXPECT_EQ(monitor.Update(26, 100), OverloadState::kShedding);
  EXPECT_EQ(monitor.Update(25, 100), OverloadState::kNormal);
  EXPECT_EQ(monitor.shedding_entered(), 1u);

  EXPECT_EQ(monitor.Update(85, 100), OverloadState::kBrownout);
  // Brownout does not demote to shedding at mid fill; only a drain to the
  // recover fraction restores normal.
  EXPECT_EQ(monitor.Update(60, 100), OverloadState::kBrownout);
  EXPECT_EQ(monitor.Update(10, 100), OverloadState::kNormal);
  EXPECT_EQ(monitor.brownout_entered(), 1u);
}

TEST(OverloadMonitorTest, LatencyTripNeedsSamples) {
  OverloadPolicy policy = TestPolicy();
  policy.brownout_p95_seconds = 0.5;
  LatencyHistogram latency;
  OverloadMonitor monitor(policy, &latency);
  // 31 slow samples: below the cold-histogram floor, no trip.
  for (int i = 0; i < 31; ++i) latency.Record(2.0);
  EXPECT_EQ(monitor.Update(0, 100), OverloadState::kNormal);
  latency.Record(2.0);
  EXPECT_EQ(monitor.Update(0, 100), OverloadState::kBrownout);
}

TEST(OverloadMonitorTest, DisabledPolicyNeverLeavesNormal) {
  OverloadPolicy policy;  // enabled = false
  OverloadMonitor monitor(policy, nullptr);
  EXPECT_EQ(monitor.Update(100, 100), OverloadState::kNormal);
  EXPECT_EQ(monitor.shedding_entered(), 0u);
}

// ---------------------------------------------------------------------------
// Deadline propagation

TEST(DeadlineShedTest, ExpiredWhileQueuedIsShedNotRun) {
  ServiceOptions options;
  options.num_workers = 1;
  options.start_workers = false;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  QueryRequest request = MbcRequest("fig2", 2, "late");
  request.deadline_ms = 1e-6;  // expired long before a worker exists
  Result<std::future<QueryResponse>> submitted =
      service.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok());
  service.StartWorkers();

  QueryResponse response = submitted.value().get();
  EXPECT_TRUE(response.status.IsDeadlineExceeded())
      << response.status.ToString();
  EXPECT_EQ(response.id, "late");

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries_shed_deadline, 1u);
  EXPECT_EQ(stats.queries_served, 0u);
  // A shed query must never populate the cache.
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(DeadlineShedTest, GenerousDeadlineStillRuns) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  QueryRequest request = MbcRequest("fig2", 2);
  request.deadline_ms = 60000.0;
  QueryResponse response = service.Query(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.result.clique.size(), 6u);
  EXPECT_EQ(service.Stats().queries_shed_deadline, 0u);
}

// ---------------------------------------------------------------------------
// Overload shedding and brownout at admission

TEST(OverloadShedTest, SheddingRefusesImmediatelyWithoutQueueing) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 4;
  options.start_workers = false;
  options.overload = TestPolicy();
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  // Two queued queries push fill to 2/4 = shed threshold.
  Result<std::future<QueryResponse>> first =
      service.Submit(MbcRequest("fig2", 2, "a"));
  Result<std::future<QueryResponse>> second =
      service.Submit(MbcRequest("fig2", 1, "b"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.overload_state(), OverloadState::kShedding);

  Result<std::future<QueryResponse>> third =
      service.Submit(MbcRequest("fig2", 3, "c"));
  ASSERT_TRUE(third.ok());  // admission "succeeds": the answer is the shed
  std::future<QueryResponse> shed = std::move(third.value());
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  QueryResponse response = shed.get();
  EXPECT_TRUE(response.status.IsResourceExhausted())
      << response.status.ToString();
  EXPECT_EQ(response.id, "c");
  EXPECT_EQ(service.Stats().queries_shed_overload, 1u);

  service.StartWorkers();
  EXPECT_TRUE(first.value().get().status.ok());
  EXPECT_TRUE(second.value().get().status.ok());
}

TEST(BrownoutTest, DegradedAnswersAreTaggedCachedSeparatelyAndNeverExact) {
  // Brownout fires below the shed fraction: the monitor checks the
  // brownout threshold first, so this policy browns out at fill 0.5
  // without ever passing through the (unreachable) shedding band.
  ServiceOptions brownout_options;
  brownout_options.num_workers = 1;
  brownout_options.max_queue = 4;
  brownout_options.start_workers = false;
  brownout_options.overload.enabled = true;
  brownout_options.overload.shed_queue_fraction = 0.75;
  brownout_options.overload.brownout_queue_fraction = 0.5;
  brownout_options.overload.recover_queue_fraction = 0.1;
  QueryService browned(brownout_options);
  ASSERT_TRUE(browned.store().Load("fig2", Figure2Graph()).ok());

  Result<std::future<QueryResponse>> a =
      browned.Submit(MbcRequest("fig2", 1, "a"));
  Result<std::future<QueryResponse>> b =
      browned.Submit(MbcRequest("fig2", 3, "b"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(browned.overload_state(), OverloadState::kBrownout);

  // No cache entry exists yet, so brownout admission downgrades the query
  // to the greedy tier; it runs when the workers start.
  Result<std::future<QueryResponse>> degraded_future =
      browned.Submit(MbcRequest("fig2", 2, "deg"));
  ASSERT_TRUE(degraded_future.ok());
  browned.StartWorkers();

  QueryResponse degraded = degraded_future.value().get();
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded);
  // The greedy answer is a valid balanced clique and a lower bound on the
  // exact |C*| = 6.
  if (degraded.result.clique.size() > 0) {
    EXPECT_TRUE(IsBalancedClique(Figure2Graph(), degraded.result.clique));
    EXPECT_GE(degraded.result.clique.left.size(), 2u);
    EXPECT_GE(degraded.result.clique.right.size(), 2u);
  }
  EXPECT_LE(degraded.result.clique.size(), 6u);

  ASSERT_TRUE(a.value().get().status.ok());
  ASSERT_TRUE(b.value().get().status.ok());

  ServiceStats stats = browned.Stats();
  EXPECT_EQ(stats.queries_degraded, 1u);
  EXPECT_EQ(stats.cache.degraded_insertions, 1u);

  // Back under the recover fraction: the same query now runs exact, and
  // the degraded cache entry must NOT satisfy it.
  QueryResponse exact = browned.Query(MbcRequest("fig2", 2, "exact"));
  ASSERT_TRUE(exact.status.ok()) << exact.status.ToString();
  EXPECT_FALSE(exact.degraded);
  EXPECT_FALSE(exact.cached);
  EXPECT_EQ(exact.result.clique.size(), 6u);
}

TEST(BrownoutTest, BrownoutPrefersExactCacheHit) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 8;
  options.overload.enabled = true;
  options.overload.shed_queue_fraction = 0.9;
  options.overload.brownout_queue_fraction = 0.25;  // 2 of 8 queued
  options.overload.recover_queue_fraction = 0.1;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  ASSERT_TRUE(
      service.store().Load("big", RandomSignedGraph(48, 500, 0.45, 7)).ok());

  // Warm the exact cache in the normal state.
  QueryResponse warm = service.Query(MbcRequest("fig2", 2, "warm"));
  ASSERT_TRUE(warm.status.ok());
  ASSERT_FALSE(warm.degraded);

  // Park the single worker behind real solves until admission observes
  // brownout. Back-to-back submissions outrun one worker's drain with
  // near-certainty; if the machine somehow drains faster, skip rather
  // than flake.
  std::vector<std::future<QueryResponse>> parked;
  bool saw_brownout = false;
  for (int i = 0; i < 6 && !saw_brownout; ++i) {
    QueryRequest park = MbcRequest("big", 1, "park" + std::to_string(i));
    park.no_cache = true;
    Result<std::future<QueryResponse>> f = service.Submit(std::move(park));
    if (f.ok()) parked.push_back(std::move(f.value()));
    saw_brownout = service.overload_state() == OverloadState::kBrownout;
  }
  if (!saw_brownout) {
    for (std::future<QueryResponse>& f : parked) f.get();
    GTEST_SKIP() << "worker drained faster than admission; cannot observe "
                    "brownout deterministically here";
  }

  // A brownout query with an exact cache entry gets that exact answer,
  // immediately and not marked degraded.
  Result<std::future<QueryResponse>> hit =
      service.Submit(MbcRequest("fig2", 2, "hit"));
  ASSERT_TRUE(hit.ok());
  QueryResponse response = hit.value().get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_TRUE(response.cached);
  EXPECT_EQ(response.result.clique.size(), 6u);
  for (std::future<QueryResponse>& f : parked) f.get();
}

// ---------------------------------------------------------------------------
// Degraded tier correctness

// A degraded gMBC answer carries one witness per size: a balanced clique
// of that size whose min side reaches its tau.
void ExpectGmbcWitnesses(const SignedGraph& graph, const QueryResult& gmbc,
                         const std::string& label) {
  ASSERT_EQ(gmbc.gmbc_cliques.size(), gmbc.gmbc_sizes.size()) << label;
  for (size_t tau = 0; tau < gmbc.gmbc_cliques.size(); ++tau) {
    const BalancedClique& witness = gmbc.gmbc_cliques[tau];
    EXPECT_EQ(witness.size(), gmbc.gmbc_sizes[tau]) << label << " tau=" << tau;
    EXPECT_GE(witness.MinSide(), tau) << label << " tau=" << tau;
    EXPECT_TRUE(IsBalancedClique(graph, witness)) << label << " tau=" << tau;
  }
}

TEST(DegradedResultTest, GreedyAnswersAreFeasibleLowerBounds) {
  const SignedGraph fig2 = Figure2Graph();
  const QueryResult mbc = ComputeDegradedResult(fig2, QueryKind::kMbc, 2);
  if (mbc.clique.size() > 0) {
    EXPECT_TRUE(IsBalancedClique(fig2, mbc.clique));
    EXPECT_GE(mbc.clique.left.size(), 2u);
    EXPECT_GE(mbc.clique.right.size(), 2u);
    EXPECT_LE(mbc.clique.size(), 6u);
  }

  const QueryResult pf = ComputeDegradedResult(fig2, QueryKind::kPf, 0);
  EXPECT_LE(pf.beta, 3u);  // beta(fig2) = 3; greedy lower-bounds it

  const QueryResult gmbc = ComputeDegradedResult(fig2, QueryKind::kGmbc, 0);
  EXPECT_EQ(gmbc.gmbc_sizes.size(), static_cast<size_t>(gmbc.beta) + 1);
  for (size_t tau = 1; tau < gmbc.gmbc_sizes.size(); ++tau) {
    EXPECT_LE(gmbc.gmbc_sizes[tau], gmbc.gmbc_sizes[tau - 1])
        << "greedy gMBC sizes must be monotone non-increasing";
  }
  ExpectGmbcWitnesses(fig2, gmbc, "fig2");
}

TEST(DegradedResultTest, DeterministicAcrossCalls) {
  const SignedGraph graph = RandomSignedGraph(40, 300, 0.5, 3);
  const QueryResult first = ComputeDegradedResult(graph, QueryKind::kMbc, 1);
  const QueryResult second = ComputeDegradedResult(graph, QueryKind::kMbc, 1);
  EXPECT_EQ(first.clique.left, second.clique.left);
  EXPECT_EQ(first.clique.right, second.clique.right);
  if (first.clique.size() > 0) {
    EXPECT_TRUE(IsBalancedClique(graph, first.clique));
  }
}

// The greedy-only heuristic tier, as the brownout tier runs it.
MbcHeuOptions GreedyOnly() {
  MbcHeuOptions options;
  options.local_search_iterations = 0;
  return options;
}

// The brownout PF/gMBC answer in its per-tau formulation: one greedy
// heuristic run per tau, beta the largest tau with a non-empty answer.
QueryResult PerTauDegradedReference(const SignedGraph& graph) {
  QueryResult result;
  for (uint32_t t = 0;; ++t) {
    const BalancedClique clique =
        MbcHeuristicSearch(graph, t, GreedyOnly()).clique;
    if (clique.empty()) break;
    result.beta = t;
    result.gmbc_sizes.push_back(static_cast<uint32_t>(clique.size()));
  }
  return result;
}

// The single-pass anchor pool reproduces the per-tau formulation on these
// graphs, and its beta is the largest min side over the anchors' greedy
// cliques (every one of them certifies beta(G) >= its min side).
TEST(DegradedResultTest, AnchorPoolMatchesPerTauGreedy) {
  const std::vector<std::pair<std::string, GeneratorParams>> specs = {
      {"bscl", {{"vertices", "2000"}, {"edges", "12000"}, {"seed", "1"}}},
      {"bscl", {{"vertices", "3000"}, {"edges", "24000"}, {"seed", "5"}}},
      {"community",
       {{"vertices", "300"}, {"edges", "6000"}, {"seed", "2"},
        {"negative-ratio", "0.35"}}},
      {"community",
       {{"vertices", "400"}, {"edges", "9000"}, {"seed", "3"},
        {"communities", "4"}}},
  };
  for (const auto& [family, params] : specs) {
    Result<SignedGraph> generated = GenerateFromFamily(family, params);
    ASSERT_TRUE(generated.ok()) << family;
    const SignedGraph& graph = generated.value();
    const QueryResult expected = PerTauDegradedReference(graph);
    size_t widest_min = 0;
    for (const BalancedClique& clique :
         MbcHeuristicSearch(graph, 0, GreedyOnly()).anchor_cliques) {
      widest_min = std::max(widest_min, clique.MinSide());
    }
    const QueryResult gmbc = ComputeDegradedResult(graph, QueryKind::kGmbc, 0);
    EXPECT_EQ(gmbc.beta, expected.beta) << family;
    EXPECT_EQ(gmbc.gmbc_sizes, expected.gmbc_sizes) << family;
    ExpectGmbcWitnesses(graph, gmbc, family);
    const QueryResult pf = ComputeDegradedResult(graph, QueryKind::kPf, 0);
    EXPECT_EQ(pf.beta, expected.beta) << family;
    EXPECT_EQ(pf.beta, widest_min) << family;
  }
}

// ---------------------------------------------------------------------------
// Session quotas (max-in-flight, rate limit, global bucket)

std::vector<std::string> RunSession(QueryService& service,
                                    const JsonlOptions& options,
                                    const std::vector<std::string>& lines,
                                    bool start_workers_after = false) {
  JsonlSession session(service, options, /*blocking_submit=*/false);
  for (const std::string& line : lines) session.HandleLine(line);
  if (start_workers_after) service.StartWorkers();
  std::vector<std::string> out;
  session.DrainBlocking(&out);
  return out;
}

TEST(SessionQuotaTest, MaxInflightShedsOverQuotaQueryInOrder) {
  ServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.start_workers = false;
  QueryService service(service_options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  JsonlOptions options;
  options.deterministic = true;
  options.max_inflight = 2;
  const std::vector<std::string> out = RunSession(
      service, options,
      {R"({"id":"a","graph":"fig2","tau":2})",
       R"({"id":"b","graph":"fig2","tau":1})",
       R"({"id":"c","graph":"fig2","tau":3})"},
      /*start_workers_after=*/true);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(out[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out[1].find("\"id\":\"b\""), std::string::npos);
  // The third query exceeded the in-flight quota while a and b were still
  // queued: one resource_exhausted frame, in order.
  EXPECT_NE(out[2].find("\"id\":\"c\""), std::string::npos);
  EXPECT_NE(out[2].find("\"error\":\"resource_exhausted\""),
            std::string::npos);
  EXPECT_NE(out[2].find("max-in-flight"), std::string::npos);
  EXPECT_EQ(service.Stats().transport.queries_shed_quota, 1u);
}

TEST(SessionQuotaTest, RateLimitShedsBeyondBurst) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  JsonlOptions options;
  options.deterministic = true;
  options.rate_limit_per_second = 1e-6;  // effectively no refill
  options.rate_burst = 1.0;
  const std::vector<std::string> out =
      RunSession(service, options,
                 {R"({"id":"a","graph":"fig2","tau":2})",
                  R"({"id":"b","graph":"fig2","tau":2})"});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out[1].find("\"error\":\"resource_exhausted\""),
            std::string::npos);
  EXPECT_NE(out[1].find("session rate limit"), std::string::npos);
  EXPECT_EQ(service.Stats().transport.queries_shed_quota, 1u);
}

TEST(SessionQuotaTest, GlobalBucketIsSharedAcrossSessions) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());

  TokenBucket global(1e-6, 1.0);
  JsonlOptions options;
  options.deterministic = true;
  options.global_rate_limiter = &global;

  const std::vector<std::string> first = RunSession(
      service, options, {R"({"id":"a","graph":"fig2","tau":2})"});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NE(first[0].find("\"ok\":true"), std::string::npos);

  // A different session against the same bucket: the one burst token is
  // spent, so this query is shed server-wide.
  const std::vector<std::string> second = RunSession(
      service, options, {R"({"id":"b","graph":"fig2","tau":2})"});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0].find("\"error\":\"resource_exhausted\""),
            std::string::npos);
  EXPECT_NE(second[0].find("server rate limit"), std::string::npos);
}

TEST(SessionQuotaTest, ControlOpsAreExemptFromQuotas) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  JsonlOptions options;
  options.deterministic = true;
  options.rate_limit_per_second = 1e-6;
  options.rate_burst = 1.0;
  // query (spends the token), then stats and list: both must still run.
  const std::vector<std::string> out =
      RunSession(service, options,
                 {R"({"id":"a","graph":"fig2","tau":2})", R"({"op":"stats"})",
                  R"({"op":"list"})"});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out[1].find("queries_served"), std::string::npos);
  EXPECT_NE(out[2].find("fig2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSONL error-code conformance: each InterruptReason has its own code.

TEST(ErrorCodeConformanceTest, DeadlineExceededOnTheWire) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  JsonlOptions options;
  options.deterministic = true;
  std::istringstream in(
      R"({"id":"d","graph":"fig2","tau":2,"deadline_ms":0.000001})"
      "\n");
  std::ostringstream out;
  ASSERT_TRUE(RunJsonlStream(service, in, out, options).ok());
  EXPECT_NE(out.str().find("\"error\":\"deadline_exceeded\""),
            std::string::npos)
      << out.str();
}

TEST(ErrorCodeConformanceTest, ResourceExhaustedOnTheWire) {
  QueryService service;
  ASSERT_TRUE(
      service.store().Load("g", RandomSignedGraph(60, 900, 0.5, 5)).ok());
  JsonlOptions options;
  options.deterministic = true;
  // 1 MB covers nothing once the process RSS is counted against it.
  std::istringstream in(R"({"id":"m","graph":"g","memory_limit_mb":1})"
                        "\n");
  std::ostringstream out;
  ASSERT_TRUE(RunJsonlStream(service, in, out, options).ok());
  EXPECT_NE(out.str().find("\"error\":\"resource_exhausted\""),
            std::string::npos)
      << out.str();
}

TEST(ErrorCodeConformanceTest, CancelledOnTheWire) {
  ServiceOptions options;
  options.num_workers = 1;
  options.start_workers = false;
  QueryService service(options);
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  QueryRequest request = MbcRequest("fig2", 2, "x");
  Result<std::future<QueryResponse>> submitted = service.Submit(request);
  ASSERT_TRUE(submitted.ok());
  service.Shutdown();  // queued-but-unstarted work resolves to kCancelled
  QueryResponse response = submitted.value().get();
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  const std::string line =
      SerializeResponse(request, response, JsonlOptions{});
  EXPECT_NE(line.find("\"error\":\"cancelled\""), std::string::npos) << line;
}

TEST(ErrorCodeConformanceTest, DegradedFlagOnTheWire) {
  QueryRequest request = MbcRequest("fig2", 2, "d");
  QueryResponse response;
  response.id = "d";
  response.degraded = true;
  response.result.beta = 0;
  JsonlOptions deterministic;
  deterministic.deterministic = true;
  const std::string line = SerializeResponse(request, response, deterministic);
  EXPECT_NE(line.find("\"degraded\":true"), std::string::npos) << line;
  // Present in non-deterministic mode too: degradation is a correctness
  // property of the answer, not a timing artifact.
  const std::string timed =
      SerializeResponse(request, response, JsonlOptions{});
  EXPECT_NE(timed.find("\"degraded\":true"), std::string::npos) << timed;
}

// ---------------------------------------------------------------------------
// Stats surface

TEST(StatsJsonTest, ExportsOverloadFieldsAndOmitsUptimeWhenDeterministic) {
  QueryService service;
  ASSERT_TRUE(service.store().Load("fig2", Figure2Graph()).ok());
  ASSERT_TRUE(service.Query(MbcRequest("fig2", 2)).status.ok());

  const std::string timed = service.StatsJson(/*deterministic=*/false);
  EXPECT_NE(timed.find("\"overload_state\":\"normal\""), std::string::npos);
  EXPECT_NE(timed.find("\"queries_shed_deadline\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"queries_shed_overload\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"queries_degraded\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"degraded_insertions\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"queries_shed_quota\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"submit_retries\":0"), std::string::npos);
  EXPECT_NE(timed.find("\"uptime_seconds\":"), std::string::npos);

  const std::string deterministic = service.StatsJson(/*deterministic=*/true);
  EXPECT_EQ(deterministic.find("uptime_seconds"), std::string::npos)
      << deterministic;
  EXPECT_NE(deterministic.find("\"overload_state\":\"normal\""),
            std::string::npos);
}

}  // namespace
}  // namespace mbc

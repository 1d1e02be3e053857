// Copyright 2026 The balanced-clique Authors.
//
// The JSONL wire format of mbc_serve and the mbc_cli batch command: one
// request object per input line, one response object per output line, in
// request order. Eight ops:
//
//   {"op":"load","name":"g","path":"graph.txt"}
//   {"op":"query","id":"q1","graph":"g","kind":"mbc","tau":3,"algo":"star"}
//   {"op":"evict","name":"g"}
//   {"op":"list"}
//   {"op":"stats"}
//   {"op":"add_edges","name":"g","edges":"0 1 +;2 3 -"}
//   {"op":"remove_edges","name":"g","edges":"0 1;2 3"}
//   {"op":"snapshot","name":"g","path":"g.mbcg"}
//
// The mutation ops (add_edges / remove_edges) apply one atomic batch to a
// loaded graph and answer with the new head version and fingerprint plus
// apply stats; the edge list is a flat string (the protocol has no nested
// containers). add_edges with an existing edge of the other sign flips
// it; matching state is a counted no-op. `snapshot` forces mutation-log
// compaction (content re-fingerprint) and, with "path", persists the head
// as a binary-v2 file — deltas themselves are in-memory only. Like every
// control op, mutations are per-session barriers: queries on earlier
// lines finish first, queries on later lines see the new head. In-flight
// queries of other sessions keep the snapshot they resolved.
//
// A line without an "op" field is a query — batch files of pure queries
// need no boilerplate. Query fields other than "graph" are optional
// (kind defaults to "mbc", tau to 1); see QueryRequest for the full set,
// including per-request "time_limit_seconds", "memory_limit_mb" and
// "no_cache". Each kind is served by one engine, and an "algo" field may
// only name it (QueryKindEngine: "star", "heu" or "tol"); anything else,
// the paper's baselines included, is invalid_argument.
//
// The parser accepts exactly the subset of JSON the protocol needs: one
// flat object of string / number / boolean fields per line. Nested
// containers are rejected, not silently mangled.
#ifndef MBC_SERVICE_JSONL_H_
#define MBC_SERVICE_JSONL_H_

#include <iosfwd>
#include <map>
#include <string>

#include "src/common/status.h"
#include "src/service/query.h"
#include "src/service/query_service.h"

namespace mbc {

/// One parsed request line: field name -> decoded scalar value (strings
/// are unescaped; numbers and booleans keep their literal spelling).
using JsonlFields = std::map<std::string, std::string>;

/// Parses one flat JSON object. Fails with InvalidArgument on malformed
/// input, nested values, or duplicate keys.
Result<JsonlFields> ParseJsonlLine(const std::string& line);

/// Builds a QueryRequest from parsed fields. Unknown fields fail (typos
/// in budget knobs must not silently become unlimited runs).
Result<QueryRequest> QueryRequestFromFields(const JsonlFields& fields);

/// Looks up `name` in parsed fields; empty string when absent.
std::string JsonlField(const JsonlFields& fields, const char* name);

/// The canonical error response line: {"id":...,"ok":false,"error":...,
/// "message":...}. Every transport answers a failed frame with exactly
/// this shape, so clients parse one error format.
std::string JsonlErrorLine(const std::string& id, const Status& status);

struct JsonlOptions;

/// Executes one control op (load / evict / list / stats / add_edges /
/// remove_edges / snapshot) against the service and returns its single
/// response line. The caller has already
/// established that fields["op"] == `op` and that `op` is not "query".
/// `options.deterministic` controls whether `stats` includes volatile
/// fields (uptime); the data-plane options are ignored here.
std::string RunJsonlControlOp(QueryService& service, const std::string& op,
                              const JsonlFields& fields,
                              const JsonlOptions& options);

/// True for lines the protocol skips without a response: blank lines and
/// '#' comments (for batch files).
bool IsJsonlSkippableLine(const std::string& line);

struct JsonlOptions {
  /// Omit the per-response "cached" and "seconds" fields, whose values
  /// depend on timing and worker interleaving. With this set, batch output
  /// is byte-identical for any worker count — what the CI golden diff and
  /// the determinism tests rely on.
  bool deterministic = false;
  /// Bound on one request line, enforced identically by every transport:
  /// a longer line is answered with a single invalid_argument error frame
  /// and its bytes are discarded up to the next newline.
  size_t max_line_bytes = 1 << 20;
  /// Per-session quota: queries this session may have in flight (submitted,
  /// response not yet emitted) at once. A query over the cap is answered
  /// with one resource_exhausted frame instead of being queued. 0 = no cap.
  /// Control ops are exempt — they are barriers, never a load source.
  size_t max_inflight = 0;
  /// Per-session admission rate (queries/second, token bucket with
  /// `rate_burst` capacity). A query arriving with the bucket empty is shed
  /// with one resource_exhausted frame. 0 = unlimited.
  double rate_limit_per_second = 0.0;
  double rate_burst = 8.0;
  /// Process-wide token bucket shared by every session (nullptr = none).
  /// Checked after the per-session bucket; not owned.
  TokenBucket* global_rate_limiter = nullptr;
};

/// Serializes one query response (success or error) as a single line,
/// without trailing newline.
std::string SerializeResponse(const QueryRequest& request,
                              const QueryResponse& response,
                              const JsonlOptions& options);

/// Drives a whole JSONL session over an istream/ostream pair (stdin mode
/// of mbc_serve, mbc_cli batch, tests): reads requests line by line,
/// pipelines queries through `service` (queries run concurrently up to the
/// worker count; responses are emitted in request order), executes control
/// ops as per-session barriers. Implemented on the same JsonlSession as
/// the socket transport (see session.h), so both frontends share one
/// protocol behavior. Returns non-OK only for I/O failure; per-request
/// errors become error response lines.
Status RunJsonlStream(QueryService& service, std::istream& in,
                      std::ostream& out, const JsonlOptions& options);

}  // namespace mbc

#endif  // MBC_SERVICE_JSONL_H_

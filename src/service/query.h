// Copyright 2026 The balanced-clique Authors.
//
// Request / response types of the query service. One QueryRequest names a
// stored graph, a problem (MBC / PF / gMBC / heuristic / tolerant MBC) and
// its parameters, each kind served by exactly one engine; one QueryResponse
// carries either the solver result or an error status. Both sides have flat
// JSON encodings (see jsonl.h) used by mbc_serve and the mbc_cli batch
// command.
#ifndef MBC_SERVICE_QUERY_H_
#define MBC_SERVICE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/balanced_clique.h"

namespace mbc {

enum class QueryKind : uint8_t {
  kMbc = 0,     // maximum balanced clique under tau
  kPf = 1,      // polarization factor beta(G)
  kGmbc = 2,    // one maximum clique per tau in [0, beta]
  kMbcHeu = 3,  // heuristic-tier lower bound (never exact; milliseconds)
  kMbcTol = 4,  // maximum clique with <= `tolerance` frustrated edges
};

inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMbc:
      return "mbc";
    case QueryKind::kPf:
      return "pf";
    case QueryKind::kGmbc:
      return "gmbc";
    case QueryKind::kMbcHeu:
      return "mbc_heu";
    case QueryKind::kMbcTol:
      return "mbc_tol";
  }
  return "unknown";
}

/// The one engine that serves `kind`, by the name the wire's optional
/// "algo" field may spell (see jsonl.h) and the cache labels its answers:
/// MBC* / PF* / gMBC* for the exact kinds, MBC-Heu and the tolerant
/// solver for theirs. The paper's baselines are library-only (mbc_cli
/// --algo, the figure benches).
inline const char* QueryKindEngine(QueryKind kind) {
  if (kind == QueryKind::kMbcHeu) return "heu";
  if (kind == QueryKind::kMbcTol) return "tol";
  return "star";
}

/// Kinds whose semantics (and cache identity) depend on the request tau.
inline bool KindUsesTau(QueryKind kind) {
  return kind == QueryKind::kMbc || kind == QueryKind::kMbcHeu ||
         kind == QueryKind::kMbcTol;
}

struct QueryRequest {
  /// Echoed verbatim into the response; callers use it to correlate.
  std::string id;
  /// Name of the graph in the GraphStore.
  std::string graph;
  QueryKind kind = QueryKind::kMbc;
  /// Polarization threshold (kMbc / kMbcHeu / kMbcTol).
  uint32_t tau = 1;
  /// Frustration budget (kMbcTol only; rejected on other kinds).
  uint32_t tolerance = 0;
  /// kMbc only: run the heuristic tier inline and feed its clique to the
  /// exact solver as the initial incumbent. Deterministic (the warm-start
  /// clique is recomputed, never taken from the cache) and witness-neutral
  /// for the parallel engine; cached under a distinct algo label so warm
  /// and cold entries never collide.
  bool warm_start = false;
  /// Per-request governor budgets; 0 = the service default / unlimited.
  double time_limit_seconds = 0.0;
  uint64_t memory_limit_mb = 0;
  /// End-to-end deadline in milliseconds, measured from admission. Unlike
  /// time_limit_seconds (which budgets only the solve), the deadline also
  /// covers queue wait: a query still queued when it expires is shed with
  /// deadline_exceeded instead of running uselessly. 0 = none.
  double deadline_ms = 0.0;
  /// Bypass the result cache (both lookup and insert) for this request.
  bool no_cache = false;
  /// Intra-query parallelism: worker threads this one query may use
  /// (0 = off, the sequential engine). Valid only for kind=mbc — anything
  /// else is invalid_argument. The count is a *request*: the service
  /// grants at most its configured intra-query budget
  /// (ServiceOptions::intra_query_threads) and clamps to 1 when the budget
  /// is 0 or exhausted. The answer is byte-identical whatever is granted
  /// (the parallel engine is deterministic across thread counts), so the
  /// grant affects latency only.
  uint32_t parallel_threads = 0;
  /// kGmbc: include the full witness cliques in the response (the default
  /// reports sizes only, keeping responses and goldens small).
  bool witnesses = false;
};

/// The solver payload of a successful response. Which fields are
/// meaningful depends on the request kind; unused ones keep their
/// defaults and are omitted from the JSON encoding.
struct QueryResult {
  /// kMbc / kMbcHeu / kMbcTol: the clique (empty = none satisfies tau).
  BalancedClique clique;
  /// kPf / kGmbc: beta(G).
  uint32_t beta = 0;
  /// kMbcTol: frustrated edges of `clique` under its returned split.
  uint32_t frustrated = 0;
  /// kGmbc: |C*| per tau in [0, beta].
  std::vector<uint32_t> gmbc_sizes;
  /// kGmbc: the witness cliques behind gmbc_sizes, in the same tau order.
  /// Always computed (so a cached entry can serve both witness and
  /// size-only requests); serialized only when the request set
  /// `witnesses`. The result cache's per-entry admission cap keeps
  /// oversized witness payloads from crowding out everything else.
  std::vector<BalancedClique> gmbc_cliques;

  /// Logical size of this payload, for cache accounting.
  size_t MemoryBytes() const {
    size_t bytes = sizeof(QueryResult) +
                   (clique.left.capacity() + clique.right.capacity() +
                    gmbc_sizes.capacity()) *
                       sizeof(uint32_t) +
                   gmbc_cliques.capacity() * sizeof(BalancedClique);
    for (const BalancedClique& witness : gmbc_cliques) {
      bytes += (witness.left.capacity() + witness.right.capacity()) *
               sizeof(uint32_t);
    }
    return bytes;
  }
};

struct QueryResponse {
  std::string id;
  Status status;  // OK, or why the query failed / was interrupted
  QueryResult result;
  /// Served from the ResultCache without running a solver.
  bool cached = false;
  /// A brownout answer: a greedy lower bound (see degraded.h), not the
  /// exact result. Serialized as "degraded":true so clients can tell.
  bool degraded = false;
  /// Wall-clock seconds from a worker picking the request up to its
  /// answer (cache lookup or solve); excludes the admission queue wait.
  /// 0 for a cache hit answered at admission under brownout.
  double seconds = 0.0;
};

}  // namespace mbc

#endif  // MBC_SERVICE_QUERY_H_

// The library side of the benchmark: one "round" of queries against one
// graph through the public solver entry points, the checks on its answers,
// and the stage replay that splits MBC* into its layers.
#ifndef PERFBENCH_LIBRARY_H_
#define PERFBENCH_LIBRARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_parallel.h"
#include "src/core/mbc_star.h"
#include "src/gmbc/gmbc.h"
#include "src/graph/signed_graph.h"
#include "src/pf/pf_star.h"
#include "src/service/query.h"

namespace perfbench {

/// Which queries one round asks of a graph (besides PF*, gMBC* and the
/// two brownout answers, which every round asks).
struct QuerySet {
  std::vector<uint32_t> mbc_taus;  // serial and parallel MBC*
  std::vector<uint32_t> heu_taus;  // MbcHeuristicSearch
  unsigned threads = 1;            // parallel engine threads
};

struct Answers {
  std::map<uint32_t, mbc::MbcStarResult> mbc;
  std::map<uint32_t, mbc::ParallelMbcResult> par;
  mbc::PfStarResult pf;
  mbc::GeneralizedMbcResult gmbc;
  std::map<uint32_t, mbc::MbcHeuResult> heu;
  mbc::QueryResult brownout_mbc;  // kMbc at the first MBC tau
  mbc::QueryResult brownout_pf;   // kPf
};

/// Seconds per metric name for one round, and the seconds of every call
/// except the parallel engine's: on a shared host, how many CPUs a
/// multi-threaded call gets changes from one minute to the next, so its
/// time is reported on its own (core.par_s) and kept out of the latency
/// and throughput figures.
struct RoundTimes {
  std::map<std::string, double> seconds;
  std::vector<double> call_seconds;
};

/// Runs every query of `set` once; each public call is one span.
Answers RunRound(const mbc::SignedGraph& graph, const QuerySet& set,
                 Tracer& tracer, RoundTimes* times);

/// Checks one round's answers (one attempted answer per call). `first`,
/// when given, is an earlier round on the same graph whose witnesses must
/// repeat byte for byte. Returns the number of answers that failed.
uint64_t CheckAnswers(const mbc::SignedGraph& graph, const QuerySet& set,
                      const Answers& answers, const Answers* first,
                      Report* report);

/// Moves one vertex of the first MBC answer to the other side.
void CorruptOneAnswer(Answers* answers);

/// Layer counters accumulated by the stage replay over several queries
/// (the layer times are the self times of the replay's spans).
struct LayerStats {
  uint64_t input_vertices = 0, kept_vertices = 0;
  uint64_t networks = 0, instances = 0, branches = 0, improved = 0;
  uint32_t net_k_max = 0;
  double heu_ratio_sum = 0;
  uint64_t heu_ratio_count = 0;
  double heu_rss_mb = -1;  // VmHWM growth across the first replayed heuristic
};

/// What the stage replay found, in MaxBalancedCliqueStar's terms.
struct ReplayOutcome {
  uint32_t tau = 0;
  mbc::BalancedClique clique;
  size_t heuristic_size = 0;
  uint64_t networks = 0, instances = 0, branches = 0;
};

/// Replays MBC* on `graph` at `tau` stage by stage through the public
/// functions of graph/, core/ and dichromatic/, recording one span per
/// stage in `tracer` (which must be enabled) and counting into `layers`.
ReplayOutcome ReplayMbcStar(const mbc::SignedGraph& graph, uint32_t tau,
                            Tracer& tracer, LayerStats* layers);

/// True iff the replay reproduced `expected`'s clique and its heuristic
/// size, network, MDC instance and branch counters exactly; otherwise says
/// why on stderr. Also adds the heuristic / exact size ratio to `layers`.
bool ReplayMatches(const ReplayOutcome& replay,
                   const mbc::MbcStarResult& expected, LayerStats* layers);

/// Counters of the parallel engine, PF* and gMBC*, and the parallel
/// engine's time at one thread against the serial engine's.
struct EngineLayers {
  uint64_t steals = 0, splits = 0, updates = 0;
  uint64_t pf_networks = 0, pf_instances = 0, pf_branches = 0;
  uint32_t pf_heuristic_tau = 0;
  uint64_t gmbc_calls = 0;
  double t1_s = 0, serial_s = 0;
};

/// Adds one round's counters to `layers`, runs the parallel engine at one
/// thread for every MBC tau of `set`, and checks that its witness equals
/// the multi-thread one (the determinism contract). `serial_s` is the
/// untraced serial MBC* time of the same queries.
void AddEngineLayers(const mbc::SignedGraph& graph, const QuerySet& set,
                     const Answers& answers, double serial_s, Tracer& tracer,
                     EngineLayers* layers, Report* report);
void ReportEngineLayers(const EngineLayers& layers, Report* report);

/// Prints every per-layer metric name, so a workload that lacks a layer
/// still reports it (as 0).
void SetAllLayerMetricsToZero(Report* report);

/// Sets the graph / core / dichromatic metrics: times from the self times
/// of the replay's spans, counts from `layers`.
void ReportLayers(const LayerStats& layers, const Tracer& tracer,
                  Report* report);

/// Mean microseconds to parse (ParseJsonlLine + QueryRequestFromFields)
/// and to serialize (SerializeResponse) the given request lines and the
/// answers paired with them.
void MeasureCodec(const std::vector<std::string>& request_lines,
                  const std::vector<mbc::QueryResponse>& responses,
                  double* parse_us, double* serialize_us);

/// Request lines and responses that express one round's answers on the
/// wire, for MeasureCodec.
void RoundAsWire(const QuerySet& set, const Answers& answers,
                 std::vector<std::string>* lines,
                 std::vector<mbc::QueryResponse>* responses);

std::string FingerprintHex(const mbc::SignedGraph& graph);

/// Serves the graph at `path` from a fresh mbc_serve and asks it the
/// round's heuristic queries (a miss, then a hit), one mutation batch and
/// its undo, and stats, over loopback TCP; sets the
/// service.* and loadgen.* per-layer metrics. Returns 0 on success.
int ProbeServiceLayers(const RunArgs& args, const std::string& path,
                       const mbc::SignedGraph& graph, const QuerySet& set,
                       const Answers& answers, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LIBRARY_H_

#include "library.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/arena.h"
#include "src/common/bitset.h"
#include "src/common/fingerprint.h"
#include "src/core/mbc_heu.h"
#include "src/core/mdc_solver.h"
#include "src/core/reductions.h"
#include "src/core/verify.h"
#include "src/dichromatic/network_builder.h"
#include "src/dichromatic/reductions.h"
#include "src/graph/cores.h"
#include "src/service/degraded.h"
#include "src/service/jsonl.h"

namespace perfbench {
namespace {

// Times one public call as a span and as a round entry.
template <typename Fn>
auto Timed(Tracer& tracer, const std::string& name, RoundTimes* times,
           Fn&& fn) {
  const int32_t span = tracer.Begin(name, times->call_seconds.size() + 1);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  const double seconds = SecondsSince(start);
  tracer.End(span);
  times->seconds[name + "_s"] += seconds;
  if (name != "mbc_par") times->call_seconds.push_back(seconds);
  return result;
}

bool ValidClique(const mbc::SignedGraph& graph, const mbc::BalancedClique& c,
                 uint32_t tau) {
  return c.empty() || (mbc::IsBalancedClique(graph, c) &&
                       c.SatisfiesThreshold(tau));
}

std::string TauLabel(const char* what, uint32_t tau) {
  return std::string(what) + " tau=" + std::to_string(tau);
}

}  // namespace

Answers RunRound(const mbc::SignedGraph& graph, const QuerySet& set,
                 Tracer& tracer, RoundTimes* times) {
  Answers a;
  for (uint32_t tau : set.mbc_taus) {
    a.mbc[tau] = Timed(tracer, "mbc", times, [&] {
      return mbc::MaxBalancedCliqueStar(graph, tau);
    });
  }
  for (uint32_t tau : set.mbc_taus) {
    a.par[tau] = Timed(tracer, "mbc_par", times, [&] {
      mbc::ParallelMbcOptions options;
      options.num_threads = set.threads;
      return mbc::ParallelMaxBalancedCliqueStar(graph, tau, options);
    });
  }
  a.pf = Timed(tracer, "pf", times,
               [&] { return mbc::PolarizationFactorStar(graph); });
  a.gmbc = Timed(tracer, "gmbc", times,
                 [&] { return mbc::GeneralizedMbcStar(graph); });
  for (uint32_t tau : set.heu_taus) {
    a.heu[tau] = Timed(tracer, "heu", times, [&] {
      return mbc::MbcHeuristicSearch(graph, tau);
    });
  }
  const uint32_t brownout_tau = set.mbc_taus.front();
  a.brownout_mbc = Timed(tracer, "brownout", times, [&] {
    return mbc::ComputeDegradedResult(graph, mbc::QueryKind::kMbc,
                                      brownout_tau);
  });
  a.brownout_pf = Timed(tracer, "brownout", times, [&] {
    return mbc::ComputeDegradedResult(graph, mbc::QueryKind::kPf, 0);
  });
  return a;
}

uint64_t CheckAnswers(const mbc::SignedGraph& graph, const QuerySet& set,
                      const Answers& a, const Answers* first,
                      Report* report) {
  const uint64_t failed_before = report->failed();
  for (uint32_t tau : set.mbc_taus) {
    const mbc::BalancedClique& exact = a.mbc.at(tau).clique;
    bool ok = ValidClique(graph, exact, tau) && !a.mbc.at(tau).stats.timed_out;
    if (first != nullptr) ok = ok && exact == first->mbc.at(tau).clique;
    report->Check(ok, TauLabel("mbc answer", tau));

    const mbc::ParallelMbcResult& par = a.par.at(tau);
    ok = ValidClique(graph, par.clique, tau) && !par.timed_out &&
         par.clique.size() == exact.size();
    if (first != nullptr) ok = ok && par.clique == first->par.at(tau).clique;
    report->Check(ok, TauLabel("parallel mbc answer", tau));
  }

  // beta is the largest tau with a non-empty MBC answer.
  bool pf_ok = !a.pf.stats.timed_out &&
               mbc::IsBalancedClique(graph, a.pf.witness) &&
               a.pf.witness.MinSide() == a.pf.beta;
  for (uint32_t tau : set.mbc_taus) {
    pf_ok = pf_ok && ((tau <= a.pf.beta) == !a.mbc.at(tau).clique.empty());
  }
  report->Check(pf_ok, "pf beta");

  const mbc::GeneralizedMbcResult& g = a.gmbc;
  bool gmbc_ok = !g.timed_out && g.beta == a.pf.beta &&
                 g.cliques.size() == static_cast<size_t>(g.beta) + 1;
  for (uint32_t tau = 0; gmbc_ok && tau < g.cliques.size(); ++tau) {
    gmbc_ok = ValidClique(graph, g.cliques[tau], tau);
    const auto exact = a.mbc.find(tau);
    if (gmbc_ok && exact != a.mbc.end()) {
      gmbc_ok = g.cliques[tau].size() == exact->second.clique.size();
    }
  }
  report->Check(gmbc_ok, "gmbc sizes");

  for (uint32_t tau : set.heu_taus) {
    const mbc::BalancedClique& heu = a.heu.at(tau).clique;
    bool ok = ValidClique(graph, heu, tau);
    const auto exact = a.mbc.find(tau);
    if (exact != a.mbc.end()) {
      ok = ok && heu.size() <= exact->second.clique.size();
    }
    report->Check(ok, TauLabel("heuristic answer", tau));
  }

  const uint32_t tau0 = set.mbc_taus.front();
  report->Check(ValidClique(graph, a.brownout_mbc.clique, tau0) &&
                    a.brownout_mbc.clique.size() <=
                        a.mbc.at(tau0).clique.size(),
                "brownout mbc answer");
  report->Check(a.brownout_pf.beta <= a.pf.beta, "brownout pf answer");
  return report->failed() - failed_before;
}

void CorruptOneAnswer(Answers* answers) {
  mbc::BalancedClique& clique = answers->mbc.begin()->second.clique;
  if (!clique.left.empty()) {
    clique.right.push_back(clique.left.back());
    clique.left.pop_back();
  } else if (!clique.right.empty()) {
    clique.left.push_back(clique.right.back());
    clique.right.pop_back();
  }
}

ReplayOutcome ReplayMbcStar(const mbc::SignedGraph& graph, uint32_t tau,
                            Tracer& tracer, LayerStats* layers) {
  ScopedSpan replay(tracer, "mbc.replay", tau);
  auto stage = [&](const char* name, auto&& fn) {
    ScopedSpan span(tracer, name, tau);
    fn();
  };

  // Phase 1: vertex reduction.
  mbc::ReducedSignedGraph reduced;
  stage("core.reduce",
        [&] { reduced = mbc::ApplyVertexReduction(graph, tau); });
  layers->input_vertices += graph.NumVertices();
  layers->kept_vertices += reduced.graph.NumVertices();

  // Phase 2: MBC-Heu lower bound.
  mbc::BalancedClique best;
  size_t heuristic_size = 0;
  if (reduced.graph.NumVertices() > 0) {
    const double rss_before = PeakRssMb(0);
    stage("core.heu", [&] {
      mbc::BalancedClique heu = mbc::MbcHeuristic(reduced.graph, tau);
      heuristic_size = heu.size();
      if (!heu.empty()) {
        heu.MapToOriginal(reduced.to_original);
        best = std::move(heu);
      }
    });
    if (layers->heu_rss_mb < 0) layers->heu_rss_mb = PeakRssMb(0) - rss_before;
  }
  size_t prune_bound = best.size();
  if (tau >= 1) {
    prune_bound = std::max<size_t>(prune_bound, 2 * size_t{tau} - 1);
  }

  // Phase 3: |C*|-core, renumbering and degeneracy order.
  mbc::SignedGraph::InducedResult cored;
  mbc::DegeneracyResult degeneracy;
  std::vector<mbc::VertexId> to_input;
  stage("graph.core", [&] {
    const std::vector<uint8_t> alive =
        mbc::KCoreMask(reduced.graph, static_cast<uint32_t>(prune_bound));
    std::vector<mbc::VertexId> keep;
    for (mbc::VertexId v = 0; v < reduced.graph.NumVertices(); ++v) {
      if (alive[v]) keep.push_back(v);
    }
    cored = reduced.graph.InducedSubgraph(keep);
    to_input.resize(cored.graph.NumVertices());
    for (mbc::VertexId v = 0; v < cored.graph.NumVertices(); ++v) {
      to_input[v] = reduced.to_original[cored.to_original[v]];
    }
    if (cored.graph.NumVertices() > 0) {
      degeneracy = mbc::DegeneracyDecompose(cored.graph);
    }
  });

  // Phase 4: one dichromatic network per vertex, pruned, then MDC. The
  // per-network calls are too many for one span each; they are summed
  // into one aggregate span per layer under the search span.
  uint64_t networks = 0, instances = 0, branches = 0;
  double build_s = 0, prune_s = 0, mdc_s = 0;
  uint64_t prune_calls = 0;
  const mbc::SignedGraph& work = cored.graph;
  const int32_t search_span = tracer.Begin("mbc.search", tau);
  const double search_start = tracer.Now();
  if (work.NumVertices() > 0) {
    mbc::DichromaticNetworkBuilder builder(work);
    mbc::DichromaticNetwork net;
    mbc::MdcSolver solver;
    mbc::SearchArena prune_arena;
    mbc::Bitset alive;
    mbc::Bitset candidates;
    std::vector<uint32_t> solution;
    const std::vector<uint32_t> seed{0};
    for (auto it = degeneracy.order.rbegin(); it != degeneracy.order.rend();
         ++it) {
      const mbc::VertexId u = *it;
      uint32_t higher = 0;
      for (mbc::VertexId v : work.PositiveNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      for (mbc::VertexId v : work.NegativeNeighbors(u)) {
        higher += degeneracy.rank[v] > degeneracy.rank[u];
      }
      if (static_cast<size_t>(higher) + 1 <= prune_bound) continue;

      Clock::time_point t = Clock::now();
      builder.BuildInto(u, degeneracy.rank.data(), nullptr, &net);
      build_s += SecondsSince(t);
      ++networks;
      const uint32_t k = net.graph.NumVertices();
      layers->net_k_max = std::max(layers->net_k_max, k);
      if (static_cast<size_t>(k) <= prune_bound) continue;

      t = Clock::now();
      ++prune_calls;
      prune_arena.BindNetwork(k);
      alive.ReshapeUninit(k);
      alive.SetAll();
      size_t alive_count = k;
      mbc::KCoreWithinInPlace(net.graph, &alive,
                              static_cast<uint32_t>(prune_bound),
                              &prune_arena.pending(), &alive_count);
      const bool pruned =
          !alive.Test(0) || alive_count <= prune_bound ||
          mbc::ColoringBoundWithin(net.graph, alive,
                                   static_cast<uint32_t>(prune_bound),
                                   &prune_arena) <= prune_bound;
      prune_s += SecondsSince(t);
      if (pruned) continue;

      ++instances;
      t = Clock::now();
      candidates.CopyFrom(alive);
      candidates.Reset(0);
      solver.Rebind(net.graph);
      const bool improved =
          solver.Solve(seed, candidates, static_cast<int32_t>(tau) - 1,
                       static_cast<int32_t>(tau), prune_bound, &solution);
      branches += solver.branches();
      mdc_s += SecondsSince(t);
      if (improved) {
        ++layers->improved;
        mbc::BalancedClique clique;
        for (uint32_t local : solution) {
          const mbc::VertexId v = to_input[net.to_original[local]];
          (net.graph.IsLeft(local) ? clique.left : clique.right).push_back(v);
        }
        clique.Canonicalize();
        best = std::move(clique);
        prune_bound = best.size();
      }
    }
  }
  tracer.End(search_span);
  {
    double offset = search_start;
    for (auto [name, seconds, count] :
         {std::tuple{"dichromatic.build", build_s, networks},
          std::tuple{"dichromatic.prune", prune_s, prune_calls},
          std::tuple{"core.mdc", mdc_s, instances}}) {
      Span span;
      span.name = name;
      span.start_s = offset;
      span.end_s = offset + seconds;
      span.parent = search_span;
      span.request = tau;
      span.count = count;
      tracer.Add(span);
      offset += seconds;
    }
  }
  layers->networks += networks;
  layers->instances += instances;
  layers->branches += branches;
  ReplayOutcome out;
  out.tau = tau;
  out.clique = std::move(best);
  out.heuristic_size = heuristic_size;
  out.networks = networks;
  out.instances = instances;
  out.branches = branches;
  return out;
}

bool ReplayMatches(const ReplayOutcome& r, const mbc::MbcStarResult& expected,
                   LayerStats* layers) {
  if (!expected.clique.empty()) {
    layers->heu_ratio_sum += static_cast<double>(r.heuristic_size) /
                             static_cast<double>(expected.clique.size());
    ++layers->heu_ratio_count;
  }
  const mbc::MbcStarStats& want = expected.stats;
  const bool same = r.clique == expected.clique &&
                    r.networks == want.num_networks_built &&
                    r.instances == want.num_mdc_instances &&
                    r.branches == want.mdc_branches &&
                    r.heuristic_size == want.heuristic_size;
  if (!same) {
    std::cerr << "perfbench: stage replay differs from MaxBalancedCliqueStar"
              << " at tau=" << r.tau << ": networks " << r.networks << " vs "
              << want.num_networks_built << ", instances " << r.instances
              << " vs " << want.num_mdc_instances << ", branches "
              << r.branches << " vs " << want.mdc_branches << ", clique "
              << r.clique.ToString() << " vs " << expected.clique.ToString()
              << "\n";
  }
  return same;
}

void AddEngineLayers(const mbc::SignedGraph& graph, const QuerySet& set,
                     const Answers& answers, double serial_s, Tracer& tracer,
                     EngineLayers* layers, Report* report) {
  for (uint32_t tau : set.mbc_taus) {
    const mbc::ParallelMbcResult& par = answers.par.at(tau);
    layers->steals += par.num_steals;
    layers->splits += par.num_splits;
    layers->updates += par.num_incumbent_updates;
    ScopedSpan span(tracer, "mbc_par_t1", tau);
    mbc::ParallelMbcOptions options;
    options.num_threads = 1;
    const Clock::time_point start = Clock::now();
    const mbc::ParallelMbcResult t1 =
        mbc::ParallelMaxBalancedCliqueStar(graph, tau, options);
    layers->t1_s += SecondsSince(start);
    report->Check(t1.clique == par.clique,
                  "parallel witness at 1 thread vs " +
                      std::to_string(set.threads) + " threads");
  }
  layers->serial_s += serial_s;
  layers->pf_networks += answers.pf.stats.num_networks_built;
  layers->pf_instances += answers.pf.stats.num_dcc_instances;
  layers->pf_branches += answers.pf.stats.dcc_branches;
  layers->pf_heuristic_tau =
      std::max(layers->pf_heuristic_tau, answers.pf.stats.heuristic_tau);
  layers->gmbc_calls += answers.gmbc.num_mbc_calls;
}

void ReportEngineLayers(const EngineLayers& l, Report* report) {
  report->Set("core.par_steals", static_cast<double>(l.steals), "count");
  report->Set("core.par_splits", static_cast<double>(l.splits), "count");
  report->Set("core.par_incumbent_updates", static_cast<double>(l.updates),
              "count");
  report->Set("core.par_t1_ratio", l.serial_s > 0 ? l.t1_s / l.serial_s : 0,
              "ratio");
  report->Set("pf.networks", static_cast<double>(l.pf_networks), "count");
  report->Set("pf.dcc_instances", static_cast<double>(l.pf_instances),
              "count");
  report->Set("pf.dcc_branches", static_cast<double>(l.pf_branches), "count");
  report->Set("pf.heuristic_tau", l.pf_heuristic_tau, "tau");
  report->Set("gmbc.mbc_calls", static_cast<double>(l.gmbc_calls), "count");
}

void SetAllLayerMetricsToZero(Report* report) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"graph.load_ms", "ms"},
      {"graph.resident_mb", "MiB"},
      {"graph.core_s", "s"},
      {"core.reduce_s", "s"},
      {"core.reduce_kept_frac", "fraction"},
      {"core.heu_s", "s"},
      {"core.heu_rss_mb", "MiB"},
      {"core.heu_ratio", "ratio"},
      {"core.heu_search_s", "s"},
      {"dichromatic.build_s", "s"},
      {"dichromatic.networks", "count"},
      {"dichromatic.net_k_max", "vertices"},
      {"dichromatic.prune_s", "s"},
      {"dichromatic.survive_frac", "fraction"},
      {"core.mdc_s", "s"},
      {"core.mdc_instances", "count"},
      {"core.mdc_branches", "count"},
      {"core.mdc_improve_frac", "fraction"},
      {"core.par_steals", "count"},
      {"core.par_splits", "count"},
      {"core.par_incumbent_updates", "count"},
      {"core.par_s", "s"},
      {"core.par_t1_ratio", "ratio"},
      {"pf.networks", "count"},
      {"pf.dcc_instances", "count"},
      {"pf.dcc_branches", "count"},
      {"pf.heuristic_tau", "tau"},
      {"gmbc.mbc_calls", "count"},
      {"service.parse_us", "us"},
      {"service.serialize_us", "us"},
      {"service.wire_ms_p50", "ms"},
      {"service.wire_ms_p99", "ms"},
      {"service.hit_ms_p50", "ms"},
      {"service.miss_ms_p99", "ms"},
      {"service.cache_hit_rate", "fraction"},
      {"service.queue_depth_p99", "requests"},
      {"service.invalidated_per_batch", "entries"},
      {"service.rekeyed_per_batch", "entries"},
      {"service.shed_frac", "fraction"},
      {"service.mutate_ms_p50", "ms"},
      {"service.mutate_ms_p99", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"failed_frac", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  for (const auto& [name, unit] : kLayers) report->Set(name, 0.0, unit);
}

void ReportLayers(const LayerStats& l, const Tracer& tracer,
                  Report* report) {
  auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double> self = tracer.SelfSeconds();
  report->Set("graph.core_s", self["graph.core"], "s");
  report->Set("core.reduce_s", self["core.reduce"], "s");
  report->Set("core.reduce_kept_frac",
              frac(static_cast<double>(l.kept_vertices),
                   static_cast<double>(l.input_vertices)),
              "fraction");
  report->Set("core.heu_s", self["core.heu"], "s");
  report->Set("core.heu_rss_mb", std::max(0.0, l.heu_rss_mb), "MiB");
  report->Set("core.heu_ratio",
              frac(l.heu_ratio_sum, static_cast<double>(l.heu_ratio_count)),
              "ratio");
  report->Set("dichromatic.build_s", self["dichromatic.build"], "s");
  report->Set("dichromatic.networks", static_cast<double>(l.networks), "count");
  report->Set("dichromatic.net_k_max", l.net_k_max, "vertices");
  report->Set("dichromatic.prune_s", self["dichromatic.prune"], "s");
  report->Set("dichromatic.survive_frac",
              frac(static_cast<double>(l.instances),
                   static_cast<double>(l.networks)),
              "fraction");
  report->Set("core.mdc_s", self["core.mdc"], "s");
  report->Set("core.mdc_instances", static_cast<double>(l.instances), "count");
  report->Set("core.mdc_branches", static_cast<double>(l.branches), "count");
  report->Set("core.mdc_improve_frac",
              frac(static_cast<double>(l.improved),
                   static_cast<double>(l.instances)),
              "fraction");
}

void MeasureCodec(const std::vector<std::string>& request_lines,
                  const std::vector<mbc::QueryResponse>& responses,
                  double* parse_us, double* serialize_us) {
  // Repeat until each side has run for a few milliseconds, so the mean is
  // not one clock tick.
  constexpr double kMinSeconds = 0.02;
  std::vector<mbc::QueryRequest> requests;
  uint64_t parsed = 0;
  Clock::time_point start = Clock::now();
  do {
    requests.clear();
    for (const std::string& line : request_lines) {
      mbc::Result<mbc::JsonlFields> fields = mbc::ParseJsonlLine(line);
      if (!fields.ok()) continue;
      mbc::Result<mbc::QueryRequest> request =
          mbc::QueryRequestFromFields(fields.value());
      if (request.ok()) requests.push_back(std::move(request).value());
      ++parsed;
    }
  } while (SecondsSince(start) < kMinSeconds);
  *parse_us = 1e6 * SecondsSince(start) / static_cast<double>(parsed);

  const mbc::JsonlOptions options;
  uint64_t serialized = 0;
  size_t bytes = 0;
  start = Clock::now();
  do {
    for (size_t i = 0; i < responses.size() && i < requests.size(); ++i) {
      bytes +=
          mbc::SerializeResponse(requests[i], responses[i], options).size();
      ++serialized;
    }
  } while (SecondsSince(start) < kMinSeconds);
  *serialize_us = serialized == 0 || bytes == 0
                      ? 0.0
                      : 1e6 * SecondsSince(start) /
                            static_cast<double>(serialized);
}

void RoundAsWire(const QuerySet& set, const Answers& a,
                 std::vector<std::string>* lines,
                 std::vector<mbc::QueryResponse>* responses) {
  auto add = [&](const std::string& line, mbc::QueryResult result) {
    lines->push_back(line);
    mbc::QueryResponse response;
    response.id = "q" + std::to_string(lines->size());
    response.result = std::move(result);
    responses->push_back(std::move(response));
  };
  for (uint32_t tau : set.mbc_taus) {
    mbc::QueryResult r;
    r.clique = a.mbc.at(tau).clique;
    add("{\"id\":\"q\",\"graph\":\"g\",\"kind\":\"mbc\",\"tau\":" +
            std::to_string(tau) + ",\"no_cache\":true}",
        r);
  }
  mbc::QueryResult pf;
  pf.beta = a.pf.beta;
  add("{\"id\":\"q\",\"graph\":\"g\",\"kind\":\"pf\"}", pf);
  for (uint32_t tau : set.heu_taus) {
    mbc::QueryResult r;
    r.clique = a.heu.at(tau).clique;
    add("{\"id\":\"q\",\"graph\":\"g\",\"kind\":\"mbc_heu\",\"tau\":" +
            std::to_string(tau) + "}",
        r);
  }
}

std::string FingerprintHex(const mbc::SignedGraph& graph) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    mbc::FingerprintSignedGraph(graph)));
  return buf;
}

}  // namespace perfbench

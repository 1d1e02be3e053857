// Copyright 2026 The balanced-clique Authors.
//
// Quality and cost of the heuristic tier (extension; the paper's MBC-Heu
// is the seed inside MBC*, here promoted to a user-facing solver), plus
// the warm-start effect of handing its incumbent to the exact engine.
// Three synthetic families (the same ones bench_parallel_scaling uses),
// plus the hub-heavy BSCL graph of the heuristic's oracle test, are
// solved three ways per tau:
//   * exact:     MaxBalancedCliqueStar, cold (its own internal greedy
//                seed stays on — this is the path the service runs);
//   * heuristic: MbcHeuristicSearch (greedy anchor pool + local search);
//   * warm:      MaxBalancedCliqueStar seeded with the heuristic clique.
//
// The report is written to BENCH_heuristic.json (schema
// mbc-heuristic-bench-v1) with, per family: the quality ratio
// |C_heu| / |C*|, the heuristic's time as a fraction of the exact solve,
// the warm-start branch reduction 1 - warm_branches / cold_branches, and
// the largest dichromatic network the heuristic built with local search
// (heu_max_network_vertices) and without (greedy_max_network_vertices),
// and index_seconds: one cold build of the graph's index (polar-core
// numbers and degeneracy order, src/graph/graph_index.h) on a freshly
// built graph. The timed solves run on one graph whose index the first
// warm-up builds, so heu_seconds is the warm per-call cost a loaded graph
// pays, and index_seconds the one-time cost moved out of it.
// Invariants asserted on every run, strict mode or not:
//   * the heuristic clique is never larger than the optimum,
//   * the warm run returns the same optimum size as the cold run, and
//   * the warm run never explores more MDC branches than the cold run.
// MBC_BENCH_STRICT=1 additionally enforces, on the planted_clique family
// (ground-truth optimum), a 0.8 quality-ratio floor and a 5% ceiling on
// the heuristic's time as a fraction of the exact solve, plus a strictly
// positive aggregate warm-start branch reduction across the families, and
// on hub_bscl a local-search network below 1/10 of 1 + the max degree
// (local search grows each anchor's network on demand, never the hub's
// whole g_u).
//
//   --short / MBC_BENCH_SHORT=1     single rep, no warm-up
//   MBC_BENCH_HEURISTIC_JSON=path   output path (default
//                                   BENCH_heuristic.json)
//   MBC_BENCH_STRICT=1              enforce the gates above
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/timer.h"
#include "src/core/mbc_heu.h"
#include "src/core/mbc_star.h"
#include "src/datasets/generators.h"
#include "src/graph/graph_index.h"
#include "src/graph/signed_graph.h"

namespace mbc {
namespace {

constexpr uint32_t kTau = 3;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  return (hash ^ value) * 0x100000001b3ull;
}

uint64_t WitnessHash(const BalancedClique& clique) {
  uint64_t hash = 0xcbf29ce484222325ull;
  hash = FnvMix(hash, clique.size());
  for (VertexId v : clique.left) hash = FnvMix(hash, v);
  for (VertexId v : clique.right) hash = FnvMix(hash, v);
  return hash;
}

struct Family {
  std::string name;
  SignedGraph graph;
};

std::vector<Family> MakeFamilies() {
  std::vector<Family> families;
  {
    CommunityGraphOptions options;
    options.num_vertices = 700;
    options.num_edges = 42000;
    options.num_communities = 6;
    options.negative_ratio = 0.35;
    options.seed = 101;
    families.push_back({"community", GenerateCommunitySignedGraph(options)});
  }
  {
    CommunityGraphOptions options;
    options.num_vertices = 450;
    options.num_edges = 36000;
    options.num_communities = 3;
    options.negative_ratio = 0.4;
    options.seed = 202;
    families.push_back({"dense_core", GenerateCommunitySignedGraph(options)});
  }
  {
    // Ground-truth optimum for the quality gate: uniform degrees so the
    // planted members dominate min{d+, d-} (the paper's own premise for
    // MBC-Heu anchoring — real optima are made of balanced-degree
    // vertices), on a background dense enough that the exact solver still
    // pays for its reductions and ego sweep. This is NOT the hub-planted
    // family of bench_parallel_scaling, whose background communities are
    // locally denser than the plants and bury every degree signal a
    // linear-time heuristic could anchor on.
    CommunityGraphOptions options;
    options.num_vertices = 1200;
    options.num_edges = 120000;
    options.num_communities = 2;
    options.negative_ratio = 0.48;
    options.powerlaw_alpha = 0.0;
    options.seed = 303;
    SignedGraph base = GenerateCommunitySignedGraph(options);
    families.push_back(
        {"planted_clique",
         PlantBalancedCliques(base, {{13, 13}, {9, 10}}, 977)});
  }
  {
    BsclOptions options;
    options.num_vertices = 6000;
    options.num_edges = 36000;
    options.seed = 3;
    families.push_back({"hub_bscl", GenerateBsclSignedGraph(options)});
  }
  return families;
}

struct Row {
  size_t exact_size = 0;
  double exact_seconds = 0.0;
  uint64_t exact_branches = 0;
  uint64_t exact_witness = 0;
  size_t heu_size = 0;
  double heu_seconds = 0.0;
  uint64_t heu_ls_improvements = 0;
  uint32_t heu_max_network_vertices = 0;
  uint32_t greedy_max_network_vertices = 0;
  double index_seconds = 0.0;
  size_t warm_size = 0;
  double warm_seconds = 0.0;
  uint64_t warm_branches = 0;
  double quality_ratio = 0.0;
  double time_fraction = 0.0;
  double branch_reduction = 0.0;
};

/// Best-of-reps timing for one callable, returning the last result.
template <typename Fn>
auto TimeBest(int warmups, int reps, double* best_seconds, Fn&& fn) {
  *best_seconds = -1.0;
  decltype(fn()) result{};
  for (int rep = 0; rep < warmups + reps; ++rep) {
    Timer timer;
    result = fn();
    const double seconds = timer.ElapsedSeconds();
    if (rep < warmups) continue;
    if (*best_seconds < 0.0 || seconds < *best_seconds) {
      *best_seconds = seconds;
    }
  }
  return result;
}

Row RunFamily(const SignedGraph& graph, int warmups, int reps) {
  Row row;

  const MbcStarResult exact =
      TimeBest(warmups, reps, &row.exact_seconds,
               [&] { return MaxBalancedCliqueStar(graph, kTau); });
  row.exact_size = exact.clique.size();
  row.exact_branches = exact.stats.mdc_branches;
  row.exact_witness = WitnessHash(exact.clique);

  const MbcHeuResult heu =
      TimeBest(warmups, reps, &row.heu_seconds,
               [&] { return MbcHeuristicSearch(graph, kTau); });
  row.heu_size = heu.clique.size();
  row.heu_ls_improvements = heu.stats.ls_improvements;
  row.heu_max_network_vertices = heu.stats.max_network_vertices;
  MbcHeuOptions greedy_options;
  greedy_options.local_search_iterations = 0;
  row.greedy_max_network_vertices =
      MbcHeuristicSearch(graph, kTau, greedy_options)
          .stats.max_network_vertices;

  // Each rep builds the index of a new graph with the same content
  // (InducedSubgraph over every vertex), whose index starts empty.
  std::vector<VertexId> all(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) all[v] = v;
  row.index_seconds = -1.0;
  for (int rep = 0; rep < warmups + reps; ++rep) {
    const SignedGraph fresh = graph.InducedSubgraph(all).graph;
    Timer timer;
    fresh.Index().Polar(fresh);
    fresh.Index().DegeneracyOrder(fresh);
    const double seconds = timer.ElapsedSeconds();
    if (rep >= warmups &&
        (row.index_seconds < 0.0 || seconds < row.index_seconds)) {
      row.index_seconds = seconds;
    }
  }

  MbcStarOptions warm_options;
  if (!heu.clique.empty() && heu.clique.SatisfiesThreshold(kTau)) {
    warm_options.initial_clique = &heu.clique;
  }
  const MbcStarResult warm =
      TimeBest(warmups, reps, &row.warm_seconds, [&] {
        return MaxBalancedCliqueStar(graph, kTau, warm_options);
      });
  row.warm_size = warm.clique.size();
  row.warm_branches = warm.stats.mdc_branches;

  row.quality_ratio =
      row.exact_size == 0
          ? 1.0
          : static_cast<double>(row.heu_size) /
                static_cast<double>(row.exact_size);
  row.time_fraction =
      row.exact_seconds > 0.0 ? row.heu_seconds / row.exact_seconds : 0.0;
  row.branch_reduction =
      row.exact_branches == 0
          ? 0.0
          : 1.0 - static_cast<double>(row.warm_branches) /
                      static_cast<double>(row.exact_branches);
  return row;
}

int Main(int argc, char** argv) {
  const char* strict_env = std::getenv("MBC_BENCH_STRICT");
  const bool strict = strict_env != nullptr && strict_env[0] == '1';
  const char* short_env = std::getenv("MBC_BENCH_SHORT");
  bool short_mode = short_env != nullptr && short_env[0] == '1';
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
  }
  // One warm-up even in short mode: the very first solve pays the cold
  // page-cache / allocator cost, which at millisecond scale distorts the
  // heuristic-vs-exact time fraction.
  const int warmups = 1;
  const int reps = short_mode ? 1 : 3;

  std::printf("Heuristic tier quality — tau=%u, %s%s\n", kTau,
              short_mode ? "short mode" : "best-of-3",
              strict ? ", STRICT" : "");

  bool invariants_ok = true;
  double planted_quality = 0.0;
  double planted_time_fraction = 0.0;
  uint64_t total_cold_branches = 0;
  uint64_t total_warm_branches = 0;
  uint32_t hub_network = 0;
  uint32_t hub_max_degree = 0;

  std::string json = "{\n";
  json += "  \"schema\": \"mbc-heuristic-bench-v1\",\n";
  json += "  \"tau\": " + std::to_string(kTau) + ",\n";
  json += "  \"short\": " + std::string(short_mode ? "true" : "false") +
          ",\n";
  json += "  \"families\": {\n";

  const std::vector<Family> families = MakeFamilies();
  for (size_t f = 0; f < families.size(); ++f) {
    const Family& family = families[f];
    const Row row = RunFamily(family.graph, warmups, reps);

    std::printf(
        "%-16s |C*|=%zu (%.3fs, %llu br)  heu=%zu (%.4fs, q=%.3f, "
        "%.1f%% of exact, net %u/%u)  index %.4fs  warm br=%llu "
        "(-%.1f%%)\n",
        family.name.c_str(), row.exact_size, row.exact_seconds,
        static_cast<unsigned long long>(row.exact_branches), row.heu_size,
        row.heu_seconds, row.quality_ratio, 100.0 * row.time_fraction,
        row.heu_max_network_vertices, row.greedy_max_network_vertices,
        row.index_seconds,
        static_cast<unsigned long long>(row.warm_branches),
        100.0 * row.branch_reduction);

    if (row.heu_size > row.exact_size) {
      invariants_ok = false;
      std::fprintf(stderr,
                   "FAIL %s: heuristic clique (%zu) exceeds the optimum "
                   "(%zu)\n",
                   family.name.c_str(), row.heu_size, row.exact_size);
    }
    if (row.warm_size != row.exact_size) {
      invariants_ok = false;
      std::fprintf(stderr,
                   "FAIL %s: warm-started optimum (%zu) differs from cold "
                   "(%zu)\n",
                   family.name.c_str(), row.warm_size, row.exact_size);
    }
    if (row.warm_branches > row.exact_branches) {
      invariants_ok = false;
      std::fprintf(stderr,
                   "FAIL %s: warm run explored more branches (%llu) than "
                   "cold (%llu)\n",
                   family.name.c_str(),
                   static_cast<unsigned long long>(row.warm_branches),
                   static_cast<unsigned long long>(row.exact_branches));
    }
    if (family.name == "planted_clique") {
      planted_quality = row.quality_ratio;
      planted_time_fraction = row.time_fraction;
    }
    if (family.name == "hub_bscl") {
      hub_network = row.heu_max_network_vertices;
      for (VertexId v = 0; v < family.graph.NumVertices(); ++v) {
        hub_max_degree = std::max(hub_max_degree, family.graph.Degree(v));
      }
    }
    total_cold_branches += row.exact_branches;
    total_warm_branches += row.warm_branches;

    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "    \"%s\": {\n"
        "      \"vertices\": %u,\n"
        "      \"edges\": %llu,\n"
        "      \"exact_size\": %zu,\n"
        "      \"exact_seconds\": %.6f,\n"
        "      \"exact_branches\": %llu,\n"
        "      \"exact_witness\": \"%016llx\",\n"
        "      \"heu_size\": %zu,\n"
        "      \"heu_seconds\": %.6f,\n"
        "      \"heu_ls_improvements\": %llu,\n"
        "      \"heu_max_network_vertices\": %u,\n"
        "      \"greedy_max_network_vertices\": %u,\n"
        "      \"index_seconds\": %.6f,\n"
        "      \"quality_ratio\": %.4f,\n"
        "      \"time_fraction\": %.4f,\n"
        "      \"warm_branches\": %llu,\n"
        "      \"warm_seconds\": %.6f,\n"
        "      \"branch_reduction\": %.4f\n"
        "    }%s\n",
        family.name.c_str(), family.graph.NumVertices(),
        static_cast<unsigned long long>(family.graph.NumEdges()),
        row.exact_size, row.exact_seconds,
        static_cast<unsigned long long>(row.exact_branches),
        static_cast<unsigned long long>(row.exact_witness), row.heu_size,
        row.heu_seconds,
        static_cast<unsigned long long>(row.heu_ls_improvements),
        row.heu_max_network_vertices, row.greedy_max_network_vertices,
        row.index_seconds, row.quality_ratio, row.time_fraction,
        static_cast<unsigned long long>(row.warm_branches), row.warm_seconds,
        row.branch_reduction, f + 1 < families.size() ? "," : "");
    json += buffer;
  }
  json += "  },\n";
  char totals[160];
  std::snprintf(totals, sizeof(totals),
                "  \"total_cold_branches\": %llu,\n"
                "  \"total_warm_branches\": %llu\n}\n",
                static_cast<unsigned long long>(total_cold_branches),
                static_cast<unsigned long long>(total_warm_branches));
  json += totals;

  const char* path_env = std::getenv("MBC_BENCH_HEURISTIC_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_heuristic.json";
  std::ofstream out(path);
  out << json;
  out.close();
  std::printf("wrote %s\n", path.c_str());

  if (!invariants_ok) return 1;
  if (strict && planted_quality < 0.8) {
    std::fprintf(stderr,
                 "FAIL (strict): planted_clique quality ratio %.3f is "
                 "below the 0.8 floor\n",
                 planted_quality);
    return 1;
  }
  if (strict && planted_time_fraction >= 0.05) {
    std::fprintf(stderr,
                 "FAIL (strict): heuristic took %.1f%% of the exact solve "
                 "on planted_clique, above the 5%% ceiling\n",
                 100.0 * planted_time_fraction);
    return 1;
  }
  if (strict && uint64_t{hub_network} * 10 >= uint64_t{hub_max_degree} + 1) {
    std::fprintf(stderr,
                 "FAIL (strict): hub_bscl local-search network of %u "
                 "vertices is not below 1/10 of 1 + its max degree %u\n",
                 hub_network, hub_max_degree);
    return 1;
  }
  if (strict && total_warm_branches >= total_cold_branches) {
    std::fprintf(stderr,
                 "FAIL (strict): no aggregate warm-start branch reduction "
                 "(%llu warm vs %llu cold)\n",
                 static_cast<unsigned long long>(total_warm_branches),
                 static_cast<unsigned long long>(total_cold_branches));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mbc

int main(int argc, char** argv) { return mbc::Main(argc, argv); }

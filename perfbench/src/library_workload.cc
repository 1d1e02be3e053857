// The two library workloads, bscl_hub and community_dense: one graph from
// the seed, then rounds of the same queries through the public solver
// entry points for --seconds. See perfbench/README.md for why each exists.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "library.h"
#include "src/datasets/families.h"
#include "src/graph/binary_io.h"

namespace perfbench {
namespace {

struct LibraryWorkload {
  std::string family;
  mbc::GeneratorParams params;  // without the seed
  QuerySet queries;
};

std::optional<LibraryWorkload> Lookup(const RunArgs& args) {
  LibraryWorkload w;
  if (args.workload == "bscl_hub") {
    w.family = "bscl";
    w.params = {{"vertices", args.small ? "3000" : "60000"},
                {"edges", args.small ? "15000" : "360000"}};
    w.queries.mbc_taus = {1, 2};
    w.queries.heu_taus = {1, 2};
  } else if (args.workload == "community_dense") {
    w.family = "community";
    w.params = {{"vertices", args.small ? "300" : "1500"},
                {"edges", args.small ? "6000" : "120000"},
                {"communities", "8"},
                {"negative-ratio", "0.35"}};
    w.queries.mbc_taus = {1, 2, 3, 4};
    w.queries.heu_taus = {1, 2};
  } else {
    return std::nullopt;
  }
  w.queries.threads = HostCpus();
  return w;
}

// Generates the graph in a child process, so the generator's memory stays
// out of this process's peak RSS, writes it as binary v2, then maps it.
// Returns the seconds taken, or a negative value on failure.
double SetUp(const LibraryWorkload& w, uint64_t seed, const std::string& path,
             mbc::SignedGraph* graph, double* load_ms) {
  const Clock::time_point start = Clock::now();
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) return -1;
  if (child == 0) {
    mbc::GeneratorParams params = w.params;
    params["seed"] = std::to_string(seed);
    mbc::Result<mbc::SignedGraph> generated =
        mbc::GenerateFromFamily(w.family, params);
    if (!generated.ok()) _exit(2);
    _exit(mbc::WriteSignedGraphBinary(generated.value(), path).ok() ? 0 : 3);
  }
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::cerr << "perfbench: graph generation failed (status " << status
              << ")\n";
    return -1;
  }
  const Clock::time_point load = Clock::now();
  mbc::Result<mbc::SignedGraph> mapped = mbc::MmapSignedGraphBinary(path);
  if (!mapped.ok()) {
    std::cerr << "perfbench: " << mapped.status().ToString() << "\n";
    return -1;
  }
  *load_ms = 1e3 * SecondsSince(load);
  *graph = std::move(mapped).value();
  return SecondsSince(start);
}

constexpr size_t kGraphs = 4;

}  // namespace

int RunLibraryWorkload(const RunArgs& args, Report* report) {
  const std::optional<LibraryWorkload> found = Lookup(args);
  if (!found) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const LibraryWorkload& w = *found;
  const QuerySet& set = w.queries;

  // kGraphs graphs per run, each from its own sub-seed: one graph's cost
  // varies with its seed by about as much as one timing varies between
  // runs, and both average out over the graphs. setup_s is the median of
  // the per-graph set-ups.
  std::vector<mbc::SignedGraph> graphs(kGraphs);
  std::vector<std::string> paths;
  std::vector<double> setup_s, load_ms;
  std::string graphs_json = "[";
  for (size_t g = 0; g < kGraphs; ++g) {
    paths.push_back(args.work_dir + "/" + args.workload + "_" +
                    std::to_string(g) + ".v2.mbcg");
    double ms = 0;
    const double seconds =
        SetUp(w, args.seed * 1000 + g, paths[g], &graphs[g], &ms);
    if (seconds < 0) return 1;
    setup_s.push_back(seconds);
    load_ms.push_back(ms);
    graphs_json += std::string(g ? "," : "") +
                   "{\"family\":" + JsonString(w.family) +
                   ",\"seed\":" + std::to_string(args.seed * 1000 + g) +
                   ",\"vertices\":" + std::to_string(graphs[g].NumVertices()) +
                   ",\"edges\":" + std::to_string(graphs[g].NumEdges()) +
                   ",\"fingerprint\":" +
                   JsonString(FingerprintHex(graphs[g])) + "}";
  }
  report->Provenance("graphs", graphs_json + "]");

  // A traced run replays MBC* first, so that the first heuristic it
  // replays is the first large allocation of the process (core.heu_rss_mb).
  Tracer tracer(args.trace);
  LayerStats layers;
  std::vector<std::vector<ReplayOutcome>> replays(kGraphs);
  if (args.trace) {
    for (size_t g = 0; g < kGraphs; ++g) {
      for (uint32_t tau : set.mbc_taus) {
        replays[g].push_back(ReplayMbcStar(graphs[g], tau, tracer, &layers));
      }
    }
  }

  // Rounds visit the graphs in turn until the next round would overrun
  // --seconds, and every graph gets at least one. A traced run needs only
  // one untraced round per graph, to compare against.
  Tracer untraced(false);
  std::vector<std::vector<std::map<std::string, double>>> rounds(kGraphs);
  std::vector<std::optional<Answers>> first(kGraphs);
  std::vector<double> calls_ms;
  double measured = 0;  // wall time of the rounds, for --seconds
  double last_round = 0;
  for (size_t r = 0;
       r < kGraphs || (!args.trace && measured + last_round <= args.seconds);
       ++r) {
    const size_t g = r % kGraphs;
    RoundTimes times;
    const Clock::time_point start = Clock::now();
    Answers answers = RunRound(graphs[g], set, untraced, &times);
    last_round = SecondsSince(start);
    measured += last_round;
    if (args.corrupt && r == 0) CorruptOneAnswer(&answers);
    CheckAnswers(graphs[g], set, answers, first[g] ? &*first[g] : nullptr,
                 report);
    if (!first[g]) first[g] = std::move(answers);
    rounds[g].push_back(times.seconds);
    for (double s : times.call_seconds) calls_ms.push_back(1e3 * s);
    std::cerr << "perfbench: round " << r << " graph " << g;
    for (const auto& [key, seconds] : times.seconds) {
      std::cerr << " " << key << "=" << seconds;
    }
    std::cerr << "\n";
  }

  // Each time metric: the sum over the graphs of its median round.
  auto graph_median = [&](size_t g, const std::string& key) {
    std::vector<double> values;
    for (const auto& round : rounds[g]) values.push_back(round.at(key));
    return Median(values);
  };
  auto total = [&](const std::string& key) {
    double sum = 0;
    for (size_t g = 0; g < kGraphs; ++g) sum += graph_median(g, key);
    return sum;
  };

  if (!args.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    for (const char* key :
         {"mbc_s", "pf_s", "gmbc_s", "heu_s", "brownout_s"}) {
      report->Set(key, total(key), "s");
    }
    report->Set("peak_rss_mb", PeakRssMb(0), "MiB");
    report->Set("lat_p50_ms", Quantile(calls_ms, 0.5), "ms");
    report->Set("lat_p99_ms", Quantile(calls_ms, 0.99), "ms");
    // Single-threaded calls per second of their own time, scaled by the
    // share of answers that passed their checks.
    double call_ms = 0;
    for (double ms : calls_ms) call_ms += ms;
    const double ok_share =
        static_cast<double>(report->attempted() - report->failed()) /
        static_cast<double>(report->attempted());
    report->Set("goodput_qps",
                ok_share * static_cast<double>(calls_ms.size()) /
                    (call_ms / 1e3),
                "1/s");
    return 0;
  }

  // Traced run: one round per graph with a span around every public call,
  // checked against the stage replay, and the parallel engine at one
  // thread.
  SetAllLayerMetricsToZero(report);
  bool replay_ok = true;
  EngineLayers engine;
  std::map<std::string, double> traced_s;
  std::optional<Answers> probe_answers;
  for (size_t g = 0; g < kGraphs; ++g) {
    RoundTimes traced;
    Answers answers = RunRound(graphs[g], set, tracer, &traced);
    CheckAnswers(graphs[g], set, answers, &*first[g], report);
    for (const auto& [key, seconds] : traced.seconds) traced_s[key] += seconds;
    for (const ReplayOutcome& replay : replays[g]) {
      replay_ok = ReplayMatches(replay, answers.mbc.at(replay.tau), &layers) &&
                  replay_ok;
    }
    AddEngineLayers(graphs[g], set, answers, graph_median(g, "mbc_s"), tracer,
                    &engine, report);
    if (g == 0) probe_answers = std::move(answers);
  }
  if (!replay_ok) return 1;
  ReportLayers(layers, tracer, report);
  ReportEngineLayers(engine, report);
  report->Set("core.par_s", total("mbc_par_s"), "s");
  report->Set("core.heu_search_s", traced_s["heu_s"], "s");

  report->Set("graph.load_ms", Median(load_ms), "ms");
  size_t resident = 0;
  for (const mbc::SignedGraph& graph : graphs) {
    resident += mbc::MappedResidentBytes(graph.MappedBase(),
                                         graph.MappedBytes());
  }
  report->Set("graph.resident_mb",
              static_cast<double>(resident) / (1024.0 * 1024.0), "MiB");

  std::vector<std::string> lines;
  std::vector<mbc::QueryResponse> responses;
  RoundAsWire(set, *probe_answers, &lines, &responses);
  double parse_us = 0, serialize_us = 0;
  MeasureCodec(lines, responses, &parse_us, &serialize_us);
  report->Set("service.parse_us", parse_us, "us");
  report->Set("service.serialize_us", serialize_us, "us");
  if (const int code = ProbeServiceLayers(args, paths[0], graphs[0], set,
                                          *probe_answers, report);
      code != 0) {
    return code;
  }

  double untraced_total = 0, traced_total = 0;
  for (const auto& [key, seconds] : traced_s) {
    traced_total += seconds;
    untraced_total += total(key);
  }
  report->Set("trace.overhead_frac",
              (traced_total - untraced_total) / untraced_total, "fraction");
  report->Set("failed_frac",
              static_cast<double>(report->failed()) /
                  static_cast<double>(report->attempted()),
              "fraction");
  if (!args.trace_path.empty() && !tracer.Write(args.trace_path)) {
    std::cerr << "perfbench: cannot write " << args.trace_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench

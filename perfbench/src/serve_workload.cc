// The serve_mixed workload: mbc_serve on loopback TCP, driven open-loop at
// a fixed rate by one generator thread over three reader connections and
// one writer connection. Every answer is checked against references that
// the same library calls compute in-process before the server starts.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "library.h"
#include "src/core/mbc_tolerant.h"
#include "src/core/verify.h"
#include "src/datasets/families.h"
#include "src/graph/binary_io.h"
#include "src/graph/signed_graph_builder.h"

extern char** environ;

namespace perfbench {
namespace {

// ---------------------------------------------------------------- server

/// One mbc_serve child process listening on an ephemeral loopback port.
/// The destructor stops it (SIGTERM, then SIGKILL) and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, unsigned workers) {
    int out[2];
    if (pipe(out) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    const std::string workers_arg = std::to_string(workers);
    std::vector<const char*> argv = {binary.c_str(), "--listen",
                                     "127.0.0.1:0", "--workers",
                                     workers_arg.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               const_cast<char**>(argv.data()), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    if (rc != 0) {
      pid_ = -1;
      close(out[0]);
      return false;
    }
    // The server prints the bare port number on stdout once listening.
    std::string line;
    char c = 0;
    while (read(out[0], &c, 1) == 1 && c != '\n') line += c;
    close(out[0]);
    port_ = static_cast<uint16_t>(std::atoi(line.c_str()));
    return port_ != 0;
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 200; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking request/response on one connection (setup and stats only).
std::optional<std::string> RoundTrip(int fd, const std::string& line) {
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return std::nullopt;
    sent += static_cast<size_t>(n);
  }
  std::string in;
  char c = 0;
  while (read(fd, &c, 1) == 1) {
    if (c == '\n') return in;
    in += c;
  }
  return std::nullopt;
}

// ------------------------------------------------- response field reading

/// The raw text of field `key` in a flat JSON response line ("" if absent;
/// arrays keep their brackets, strings their quotes).
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  size_t end = begin;
  if (line[begin] == '[') {
    end = line.find(']', begin) + 1;
  } else if (line[begin] == '"') {
    end = line.find('"', begin + 1) + 1;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

double NumberField(const std::string& line, const std::string& key) {
  const std::string text = Field(line, key);
  return text.empty() ? -1.0 : std::strtod(text.c_str(), nullptr);
}

/// Appends `item` to a `separator`-separated list.
void AppendItem(std::string* list, const char* separator,
                const std::string& item) {
  if (!list->empty()) *list += separator;
  *list += item;
}

template <typename T>
std::string ArrayOf(const std::vector<T>& values) {
  std::string items;
  for (const T& value : values) AppendItem(&items, ",", std::to_string(value));
  return "[" + items + "]";
}

// --------------------------------------------------------------- workload

struct ServeGraph {
  std::string name;
  std::string family;
  mbc::GeneratorParams params;
  mbc::SignedGraph graph;
  std::string path;
};

/// What a correct response to one request must contain.
struct Expected {
  std::string kind;
  std::vector<std::pair<std::string, std::string>> fields;  // raw JSON text
  /// When set, the witness need only be a valid balanced clique of this
  /// graph at `tau` (serial MBC* promises a maximum clique, not a
  /// particular one, and a cache entry carried across a mutation keeps its
  /// earlier witness); `fields` then holds only the size.
  const mbc::SignedGraph* graph = nullptr;
  uint32_t tau = 0;
};

struct Request {
  double due_s = 0;  // since the load started
  size_t conn = 0;
  std::string line;
  Expected expected;
  bool hot = false;       // a repeated read the cache should answer
  bool mutation = false;  // add_edges / remove_edges on the writer
  bool stats = false;     // a stats op on the writer
};

struct Outcome {
  double latency_ms = -1;  // from due time to the response; -1 = none
  double wire_ms = 0;      // client time from send minus server seconds
  double server_ms = -1;
  double lag_ms = 0;       // how late it was sent
  bool ok = false;
  bool cached = false;
  std::string response;
};

Expected ExpectClique(const std::string& kind,
                      const mbc::BalancedClique& clique) {
  return {kind,
          {{"size", std::to_string(clique.size())},
           {"left", ArrayOf(clique.left)},
           {"right", ArrayOf(clique.right)}}};
}

Expected ExpectMaximum(const mbc::SignedGraph& graph, uint32_t tau,
                       const mbc::BalancedClique& clique) {
  Expected e{"mbc", {{"size", std::to_string(clique.size())}}};
  e.graph = &graph;
  e.tau = tau;
  return e;
}

std::vector<mbc::VertexId> ParseArray(const std::string& text) {
  std::vector<mbc::VertexId> values;
  const char* p = text.c_str();
  while (*p != '\0') {
    if (*p >= '0' && *p <= '9') {
      char* end = nullptr;
      values.push_back(static_cast<mbc::VertexId>(std::strtoul(p, &end, 10)));
      p = end;
    } else {
      ++p;
    }
  }
  return values;
}

bool Matches(const Expected& e, const std::string& response) {
  if (Field(response, "ok") != "true") return false;
  if (Field(response, "kind") != "\"" + e.kind + "\"") return false;
  for (const auto& [key, value] : e.fields) {
    if (Field(response, key) != value) return false;
  }
  if (e.graph != nullptr) {
    mbc::BalancedClique clique;
    clique.left = ParseArray(Field(response, "left"));
    clique.right = ParseArray(Field(response, "right"));
    return clique.empty() || (mbc::IsBalancedClique(*e.graph, clique) &&
                              clique.SatisfiesThreshold(e.tau));
  }
  return true;
}

/// Runs the schedule open-loop: each request is written when due, whatever
/// is still outstanding; responses are read as they arrive. One thread.
bool RunSchedule(const std::vector<int>& fds,
                 const std::vector<Request>& schedule, Tracer& tracer,
                 std::vector<Outcome>* outcomes, double* elapsed_s) {
  outcomes->assign(schedule.size(), Outcome{});
  std::vector<std::deque<size_t>> pending(fds.size());
  std::vector<std::string> inbuf(fds.size());
  std::vector<double> sent_at(schedule.size(), 0);
  for (int fd : fds) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);

  const Clock::time_point start = Clock::now();
  size_t next = 0;
  size_t answered = 0;
  const double give_up_s =
      (schedule.empty() ? 0 : schedule.back().due_s) + 60.0;
  while (answered < schedule.size()) {
    double now = SecondsSince(start);
    if (now > give_up_s) return false;
    while (next < schedule.size() && schedule[next].due_s <= now) {
      const Request& r = schedule[next];
      const std::string out = r.line + "\n";
      // Stamped before the write: a reply can arrive before the writing
      // thread runs again.
      sent_at[next] = SecondsSince(start);
      (*outcomes)[next].lag_ms = 1e3 * (sent_at[next] - r.due_s);
      size_t sent = 0;
      while (sent < out.size()) {
        const ssize_t n = send(fds[r.conn], out.data() + sent,
                               out.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          pollfd p{fds[r.conn], POLLOUT, 0};
          poll(&p, 1, 10);
        } else {
          return false;
        }
      }
      now = SecondsSince(start);
      pending[r.conn].push_back(next);
      ++next;
    }
    int timeout_ms = 50;
    if (next < schedule.size()) {
      const double wait_s = schedule[next].due_s - SecondsSince(start);
      timeout_ms = std::max(0, static_cast<int>(wait_s * 1e3));
    }
    std::vector<pollfd> polls;
    for (int fd : fds) polls.push_back({fd, POLLIN, 0});
    if (poll(polls.data(), polls.size(), timeout_ms) <= 0) continue;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (!(polls[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      const ssize_t n = read(fds[c], buf, sizeof(buf));
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        return false;  // the server closed a connection
      }
      const double received = SecondsSince(start);
      inbuf[c].append(buf, static_cast<size_t>(n));
      size_t eol;
      while ((eol = inbuf[c].find('\n')) != std::string::npos) {
        std::string line = inbuf[c].substr(0, eol);
        inbuf[c].erase(0, eol + 1);
        if (pending[c].empty()) return false;
        const size_t index = pending[c].front();
        pending[c].pop_front();
        Outcome& o = (*outcomes)[index];
        const Request& r = schedule[index];
        o.latency_ms = 1e3 * (received - r.due_s);
        const double server_s = NumberField(line, "seconds");
        o.server_ms = server_s < 0 ? -1 : 1e3 * server_s;
        o.wire_ms = 1e3 * (received - sent_at[index]) -
                    std::max(0.0, o.server_ms);
        o.ok = Field(line, "ok") == "true";
        o.cached = Field(line, "cached") == "true";
        o.response = std::move(line);
        if (tracer.enabled()) {
          Span span;
          span.name = r.mutation ? "serve.mutate"
                      : r.stats  ? "serve.stats"
                                 : "serve." + r.expected.kind;
          span.start_s = r.due_s;
          span.end_s = received;
          span.request = index + 1;
          tracer.Add(span);
        }
        ++answered;
      }
    }
  }
  *elapsed_s = SecondsSince(start);
  return true;
}

/// Per-request measurements of one schedule, checked and split by kind.
struct Scored {
  std::vector<double> latency_ms, wire_ms, hit_ms, miss_ms, mutate_ms,
      lag_ms, queue_depth, invalidated, rekeyed;
  uint64_t good = 0;  // correct query answers within the latency limit
};

Scored Score(const std::vector<Request>& schedule,
             const std::vector<Outcome>& outcomes, double latency_limit_ms,
             Report* report) {
  Scored s;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Request& r = schedule[i];
    const Outcome& o = outcomes[i];
    s.lag_ms.push_back(o.lag_ms);
    if (r.stats) {
      s.queue_depth.push_back(NumberField(o.response, "queue_depth"));
      continue;
    }
    if (r.mutation) {
      report->Check(o.ok, "mutation batch " + r.line.substr(0, 40));
      s.mutate_ms.push_back(o.latency_ms);
      s.invalidated.push_back(NumberField(o.response, "cache_invalidated"));
      s.rekeyed.push_back(NumberField(o.response, "cache_rekeyed"));
      continue;
    }
    report->Attempt();
    const bool correct = Matches(r.expected, o.response);
    if (!correct) {
      if (o.ok) report->MarkWrong();
      std::string want;
      for (const auto& [key, value] : r.expected.fields) {
        want += " " + key + "=" + value;
      }
      report->Fail("serve answer " + r.line + " -> " + o.response +
                   "; expected" + want);
    }
    s.latency_ms.push_back(o.latency_ms);
    if (correct && o.latency_ms <= latency_limit_ms) ++s.good;
    s.wire_ms.push_back(o.wire_ms);
    (o.cached ? s.hit_ms : s.miss_ms).push_back(o.server_ms);
  }
  // A generator that fell behind did not apply the offered load.
  constexpr double kMaxLagMs = 100;
  const double lag_p99 = Quantile(s.lag_ms, 0.99);
  if (lag_p99 > kMaxLagMs) {
    std::cerr << "perfbench: load generator lag p99 " << lag_p99 << " ms\n";
    report->Fail("load generator fell behind");
  }
  return s;
}

void ReportServiceLayers(const Scored& s, const std::string& final_stats,
                         Report* report) {
  report->Set("service.wire_ms_p50", Quantile(s.wire_ms, 0.5), "ms");
  report->Set("service.wire_ms_p99", Quantile(s.wire_ms, 0.99), "ms");
  report->Set("service.hit_ms_p50", Quantile(s.hit_ms, 0.5), "ms");
  report->Set("service.miss_ms_p99", Quantile(s.miss_ms, 0.99), "ms");
  report->Set("service.cache_hit_rate", NumberField(final_stats, "hit_rate"),
              "fraction");
  report->Set("service.queue_depth_p99", Quantile(s.queue_depth, 0.99),
              "requests");
  report->Set("service.invalidated_per_batch", Median(s.invalidated),
              "entries");
  report->Set("service.rekeyed_per_batch", Median(s.rekeyed), "entries");
  const double shed = NumberField(final_stats, "queries_rejected") +
                      NumberField(final_stats, "queries_shed_deadline") +
                      NumberField(final_stats, "queries_shed_overload") +
                      NumberField(final_stats, "queries_shed_quota");
  const double served = NumberField(final_stats, "queries_served");
  report->Set("service.shed_frac", served > 0 ? shed / (served + shed) : 0,
              "fraction");
  report->Set("service.mutate_ms_p50", Quantile(s.mutate_ms, 0.5), "ms");
  report->Set("service.mutate_ms_p99", Quantile(s.mutate_ms, 0.99), "ms");
  report->Set("loadgen.lag_p99_ms", Quantile(s.lag_ms, 0.99), "ms");
}

struct Config {
  std::vector<ServeGraph> readers;
  ServeGraph writer;
  double rate_qps = 0;         // reader queries per second, all connections
  double mutate_period_s = 0;  // one writer batch per period
  size_t batch_edges = 0;
  double latency_limit_ms = 0;
  double stats_period_s = 0;
};

Config MakeConfig(const RunArgs& args) {
  Config c;
  const std::string cv = args.small ? "200" : "800";
  const std::string ce = args.small ? "3000" : "40000";
  const std::string bv = args.small ? "2000" : "20000";
  const std::string be = args.small ? "10000" : "120000";
  auto community = [&](const std::string& name, uint64_t sub) {
    return ServeGraph{name, "community",
                      {{"vertices", cv}, {"edges", ce}, {"communities", "8"},
                       {"negative-ratio", "0.35"},
                       {"seed", std::to_string(args.seed * 16 + sub)}},
                      {}, ""};
  };
  auto bscl = [&](const std::string& name, uint64_t sub) {
    return ServeGraph{name, "bscl",
                      {{"vertices", bv}, {"edges", be},
                       {"seed", std::to_string(args.seed * 16 + sub)}},
                      {}, ""};
  };
  c.readers = {community("c0", 1), community("c1", 2), bscl("b0", 3),
               bscl("b1", 4)};
  c.writer = community("w", 5);
  c.rate_qps = args.small ? 20 : 34;
  c.mutate_period_s = 1.0;
  c.batch_edges = 16;
  c.latency_limit_ms = 1000;
  c.stats_period_s = 0.25;
  return c;
}

mbc::SignedGraph WithEdges(const mbc::SignedGraph& base,
                           const std::vector<std::tuple<uint32_t, uint32_t,
                                                        mbc::Sign>>& extra) {
  mbc::SignedGraphBuilder builder(base.NumVertices());
  for (mbc::VertexId u = 0; u < base.NumVertices(); ++u) {
    for (mbc::VertexId v : base.PositiveNeighbors(u)) {
      if (u < v) builder.AddEdge(u, v, mbc::Sign::kPositive);
    }
    for (mbc::VertexId v : base.NegativeNeighbors(u)) {
      if (u < v) builder.AddEdge(u, v, mbc::Sign::kNegative);
    }
  }
  for (const auto& [u, v, sign] : extra) builder.AddEdge(u, v, sign);
  return std::move(builder).Build();
}

/// Library answers that the service's answers must equal.
struct GraphReference {
  Answers answers;
  std::optional<mbc::MbcTolerantResult> tolerant;  // tau 1, k 1
};

}  // namespace

int RunServeWorkload(const RunArgs& args, Report* report) {
  if (args.serve_binary.empty() || access(args.serve_binary.c_str(), X_OK)) {
    std::cerr << "perfbench: serve_mixed needs --serve-binary\n";
    return 2;
  }
  Config cfg = MakeConfig(args);
  const unsigned cpus = HostCpus();
  // Server workers plus the one generator thread stay within nproc.
  const unsigned workers = cpus > 1 ? cpus - 1 : 1;

  // Inputs: generated from the seed, written as v2 files and mapped back;
  // the references run on the mapped files, as the server's answers do.
  std::vector<ServeGraph*> all;
  for (ServeGraph& r : cfg.readers) all.push_back(&r);
  all.push_back(&cfg.writer);
  std::string graphs_json;
  double load_ms = 0;
  for (ServeGraph* g : all) {
    mbc::Result<mbc::SignedGraph> generated =
        mbc::GenerateFromFamily(g->family, g->params);
    if (!generated.ok()) {
      std::cerr << "perfbench: " << generated.status().ToString() << "\n";
      return 1;
    }
    g->path = args.work_dir + "/serve_" + g->name + ".v2.mbcg";
    if (!mbc::WriteSignedGraphBinary(generated.value(), g->path).ok()) {
      return 1;
    }
    const Clock::time_point load = Clock::now();
    mbc::Result<mbc::SignedGraph> mapped = mbc::MmapSignedGraphBinary(g->path);
    if (!mapped.ok()) return 1;
    load_ms += 1e3 * SecondsSince(load);
    g->graph = std::move(mapped).value();
    AppendItem(&graphs_json, ",",
               "{\"name\":" + JsonString(g->name) +
                   ",\"family\":" + JsonString(g->family) +
                   ",\"seed\":" + g->params.at("seed") +
                   ",\"vertices\":" + std::to_string(g->graph.NumVertices()) +
                   ",\"edges\":" + std::to_string(g->graph.NumEdges()) +
                   ",\"fingerprint\":" +
                   JsonString(FingerprintHex(g->graph)) + "}");
  }
  report->Provenance("graphs", "[" + graphs_json + "]");

  // The writer's snapshot sequence: batch i adds fresh edges (even i) or
  // removes the ones the previous batch added (odd i), so every odd batch
  // restores the base content. contents[0] is the base.
  std::mt19937_64 rng(args.seed * 7919 + 17);
  const size_t batches =
      std::max<size_t>(2, static_cast<size_t>(args.seconds /
                                              cfg.mutate_period_s));
  std::vector<std::string> batch_lines;
  std::vector<const mbc::SignedGraph*> batch_content;
  std::deque<mbc::SignedGraph> added_contents;  // stable addresses
  {
    const mbc::VertexId n = cfg.writer.graph.NumVertices();
    std::vector<std::tuple<uint32_t, uint32_t, mbc::Sign>> added;
    for (size_t i = 0; i < batches; ++i) {
      std::string edges;
      if (i % 2 == 0) {
        added.clear();
        std::set<std::pair<uint32_t, uint32_t>> seen;
        while (added.size() < cfg.batch_edges) {
          uint32_t u = static_cast<uint32_t>(rng() % n);
          uint32_t v = static_cast<uint32_t>(rng() % n);
          if (u == v) continue;
          if (u > v) std::swap(u, v);
          if (cfg.writer.graph.EdgeSign(u, v) || !seen.insert({u, v}).second) {
            continue;
          }
          const mbc::Sign sign =
              rng() % 3 == 0 ? mbc::Sign::kNegative : mbc::Sign::kPositive;
          added.emplace_back(u, v, sign);
          AppendItem(&edges, ";",
                     std::to_string(u) + " " + std::to_string(v) +
                         (sign == mbc::Sign::kPositive ? " +" : " -"));
        }
        batch_lines.push_back(
            "{\"op\":\"add_edges\",\"name\":\"w\",\"edges\":\"" + edges +
            "\"}");
        added_contents.push_back(WithEdges(cfg.writer.graph, added));
        batch_content.push_back(&added_contents.back());
      } else {
        for (const auto& [u, v, sign] : added) {
          AppendItem(&edges, ";", std::to_string(u) + " " + std::to_string(v));
        }
        batch_lines.push_back(
            "{\"op\":\"remove_edges\",\"name\":\"w\",\"edges\":\"" + edges +
            "\"}");
        batch_content.push_back(&cfg.writer.graph);
      }
    }
  }

  // Reference answers for the writer's reads: MBC* at tau 1 and PF* on
  // every distinct content of the sequence.
  std::map<const mbc::SignedGraph*, std::pair<mbc::BalancedClique, uint32_t>>
      content_refs;
  for (const mbc::SignedGraph* content : batch_content) {
    if (content_refs.count(content) != 0) continue;
    mbc::MbcStarResult exact = mbc::MaxBalancedCliqueStar(*content, 1);
    const mbc::PfStarResult pf = mbc::PolarizationFactorStar(*content);
    report->Check(mbc::IsBalancedClique(*content, exact.clique) &&
                      mbc::IsBalancedClique(*content, pf.witness) &&
                      pf.witness.MinSide() == pf.beta,
                  "writer snapshot reference");
    content_refs[content] = {std::move(exact.clique), pf.beta};
  }

  // Reference rounds on the reader graphs, kRefPasses times; their times
  // are this workload's library metrics (per graph the median pass).
  QuerySet reader_set;
  reader_set.mbc_taus = {1, 2};
  reader_set.heu_taus = {1};
  reader_set.threads = cpus;

  Tracer tracer(args.trace);
  LayerStats layers;
  std::vector<std::vector<ReplayOutcome>> replays(cfg.readers.size());
  if (args.trace) {
    for (size_t g = 0; g < cfg.readers.size(); ++g) {
      for (uint32_t tau : reader_set.mbc_taus) {
        replays[g].push_back(
            ReplayMbcStar(cfg.readers[g].graph, tau, tracer, &layers));
      }
    }
  }

  Tracer untraced(false);
  constexpr int kRefPasses = 3;
  std::vector<GraphReference> reader_refs(cfg.readers.size());
  std::vector<std::map<std::string, std::vector<double>>> passes(
      cfg.readers.size());
  for (int pass = 0; pass < kRefPasses; ++pass) {
    for (size_t g = 0; g < cfg.readers.size(); ++g) {
      RoundTimes times;
      Answers answers =
          RunRound(cfg.readers[g].graph, reader_set, untraced, &times);
      if (args.corrupt && pass == 0 && g == 0) CorruptOneAnswer(&answers);
      CheckAnswers(cfg.readers[g].graph, reader_set, answers,
                   pass == 0 ? nullptr : &reader_refs[g].answers, report);
      if (pass == 0) reader_refs[g].answers = std::move(answers);
      for (const auto& [key, seconds] : times.seconds) {
        passes[g][key].push_back(seconds);
      }
    }
  }
  std::map<std::string, double> library_s;
  std::vector<double> reader_mbc_s(cfg.readers.size());
  double reader_round_s = 0;  // untraced, for the tracing overhead
  for (size_t g = 0; g < cfg.readers.size(); ++g) {
    for (const auto& [key, values] : passes[g]) {
      library_s[key] += Median(values);
      reader_round_s += Median(values);
    }
    reader_mbc_s[g] = Median(passes[g]["mbc_s"]);
    if (cfg.readers[g].family == "community") {
      reader_refs[g].tolerant =
          mbc::MaxTolerantBalancedClique(cfg.readers[g].graph, 1, 1);
    }
  }

  // The request schedule. Responses come back in request order on each
  // connection, so the repeated reads get a connection of their own (a
  // client that only reads hot keys) and the cold queries alternate over
  // two more; the writer's batches, its reads of the mutated graph and
  // the stats polls share the fourth, so their order is fixed.
  std::vector<Request> schedule;
  const size_t readers = 3;
  const size_t writer = readers;
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const size_t total = static_cast<size_t>(cfg.rate_qps * args.seconds);
  // Shares of the mix: [0, kHot) repeated reads, [kHot, kInteractive)
  // cold mbc_heu on the community graphs, the rest cold exact queries and
  // mbc_tol (see README.md).
  constexpr double kHot = 0.35;
  constexpr double kInteractive = 0.80;
  size_t cold = 0;
  for (size_t i = 0; i < total; ++i) {
    Request r;
    r.due_s = static_cast<double>(i) / cfg.rate_qps;
    const std::string id = "r" + std::to_string(i);
    const double pick = uniform(rng);
    r.conn = pick < kHot ? 0 : 1 + (cold++ % (readers - 1));
    // The interactive tier runs on the community graphs (the first two).
    const size_t g = pick >= kHot && pick < kInteractive
                         ? rng() % 2
                         : rng() % cfg.readers.size();
    const std::string graph = cfg.readers[g].name;
    const Answers& ref = reader_refs[g].answers;
    auto query = [&](const std::string& body) {
      return "{\"id\":\"" + id + "\",\"graph\":\"" + graph + "\"," + body +
             "}";
    };
    if (pick < kHot) {
      // Repeated reads: a handful of keys, so the cache answers.
      r.hot = true;
      const uint32_t tau = (g % 2) + 1;
      if (i % 3 == 0) {
        r.line = query("\"kind\":\"pf\"");
        r.expected = {"pf", {{"beta", std::to_string(ref.pf.beta)}}};
      } else if (i % 3 == 1) {
        r.line = query("\"kind\":\"mbc\",\"tau\":" + std::to_string(tau));
        r.expected = ExpectMaximum(cfg.readers[g].graph, tau,
                                   ref.mbc.at(tau).clique);
      } else {
        std::vector<size_t> sizes;
        for (const mbc::BalancedClique& c : ref.gmbc.cliques) {
          sizes.push_back(c.size());
        }
        r.line = query("\"kind\":\"gmbc\"");
        r.expected = {"gmbc", {{"sizes", ArrayOf(sizes)}}};
      }
    } else if (pick < kInteractive ||
               (pick >= 0.95 && !reader_refs[g].tolerant)) {
      // Cold heuristic-tier answers.
      r.line = query("\"kind\":\"mbc_heu\",\"tau\":1,\"no_cache\":true");
      r.expected = ExpectClique("mbc_heu", ref.heu.at(1).clique);
    } else if (pick < 0.95) {
      // Cold exact queries.
      const uint32_t tau = 1 + static_cast<uint32_t>(rng() % 2);
      if (pick < 0.88) {
        r.line = query("\"kind\":\"mbc\",\"tau\":" + std::to_string(tau) +
                       ",\"no_cache\":true");
        r.expected = ExpectMaximum(cfg.readers[g].graph, tau,
                                   ref.mbc.at(tau).clique);
      } else if (pick < 0.90) {
        r.line = query("\"kind\":\"mbc\",\"tau\":" + std::to_string(tau) +
                       ",\"no_cache\":true,\"parallel_threads\":2");
        r.expected = ExpectClique("mbc", ref.par.at(tau).clique);
      } else {
        r.line = query("\"kind\":\"pf\",\"no_cache\":true");
        r.expected = {"pf", {{"beta", std::to_string(ref.pf.beta)}}};
      }
    } else {
      const mbc::MbcTolerantResult& tol = *reader_refs[g].tolerant;
      r.line = query(
          "\"kind\":\"mbc_tol\",\"tau\":1,\"tolerance\":1,\"no_cache\":true");
      r.expected = {"mbc_tol",
                    {{"size", std::to_string(tol.clique.size())},
                     {"frustrated", std::to_string(tol.frustrated_edges)}}};
    }
    schedule.push_back(std::move(r));
  }
  for (size_t b = 0; b < batch_lines.size(); ++b) {
    const double due = (static_cast<double>(b) + 0.5) * cfg.mutate_period_s;
    Request m;
    m.due_s = due;
    m.conn = writer;
    m.line = batch_lines[b];
    m.mutation = true;
    schedule.push_back(m);
    const auto& [clique, beta] = content_refs.at(batch_content[b]);
    Request read;
    read.due_s = due;
    read.conn = writer;
    read.line = "{\"id\":\"w" + std::to_string(b) +
                "\",\"graph\":\"w\",\"kind\":\"mbc\",\"tau\":1}";
    read.expected = ExpectMaximum(*batch_content[b], 1, clique);
    schedule.push_back(read);
    read.line = "{\"id\":\"wp" + std::to_string(b) +
                "\",\"graph\":\"w\",\"kind\":\"pf\"}";
    read.expected = {"pf", {{"beta", std::to_string(beta)}}};
    schedule.push_back(read);
  }
  for (double t = cfg.stats_period_s; t < args.seconds;
       t += cfg.stats_period_s) {
    Request s;
    s.due_s = t;
    s.conn = writer;
    s.line = "{\"op\":\"stats\"}";
    s.stats = true;
    schedule.push_back(s);
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_s < b.due_s;
                   });

  // Set-up: server start plus the load of every graph, several times.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) server->Stop();
    server = std::make_unique<ServerProcess>();
    const Clock::time_point start = Clock::now();
    if (!server->Start(args.serve_binary, workers)) {
      std::cerr << "perfbench: mbc_serve did not start\n";
      return 1;
    }
    const int control = Connect(server->port());
    if (control < 0) return 1;
    bool loaded = true;
    for (const ServeGraph* g : all) {
      const std::optional<std::string> reply = RoundTrip(
          control, "{\"op\":\"load\",\"name\":\"" + g->name +
                       "\",\"path\":" + JsonString(g->path) + "}");
      loaded = loaded && reply && Field(*reply, "ok") == "true";
    }
    close(control);
    setup_s.push_back(SecondsSince(start));
    if (!loaded) {
      std::cerr << "perfbench: mbc_serve could not load the graphs\n";
      return 1;
    }
  }

  std::vector<int> fds;
  for (size_t c = 0; c <= readers; ++c) {
    const int fd = Connect(server->port());
    if (fd < 0) return 1;
    fds.push_back(fd);
  }
  // Warm-up, untimed: the repeated reads' first (cold) answers, one at a
  // time, so the timed phase starts with those keys cached.
  std::set<std::string> warmed;
  for (const Request& r : schedule) {
    if (!r.hot || !warmed.insert(r.line.substr(r.line.find("\"graph\"")))
                       .second) {
      continue;
    }
    const std::optional<std::string> reply = RoundTrip(fds[0], r.line);
    report->Check(reply && Matches(r.expected, *reply),
                  "warm-up answer " + r.line);
  }

  std::vector<Outcome> outcomes;
  double elapsed_s = 0;
  const bool ran = RunSchedule(fds, schedule, tracer, &outcomes, &elapsed_s);
  for (int fd : fds) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  std::optional<std::string> final_stats;
  if (ran) final_stats = RoundTrip(fds[writer], "{\"op\":\"stats\"}");
  const double server_peak_mb = PeakRssMb(server->pid());
  for (int fd : fds) close(fd);
  server->Stop();
  if (!ran || !final_stats) {
    std::cerr << "perfbench: the load run did not complete\n";
    return 1;
  }

  const Scored scored = Score(schedule, outcomes, cfg.latency_limit_ms, report);
  if (!args.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    for (const char* key :
         {"mbc_s", "pf_s", "gmbc_s", "heu_s", "brownout_s"}) {
      report->Set(key, library_s[key], "s");
    }
    report->Set("peak_rss_mb", server_peak_mb, "MiB");
    report->Set("lat_p50_ms", Quantile(scored.latency_ms, 0.5), "ms");
    report->Set("lat_p99_ms", Quantile(scored.latency_ms, 0.99), "ms");
    report->Set("goodput_qps", static_cast<double>(scored.good) / elapsed_s,
                "1/s");
    return 0;
  }

  SetAllLayerMetricsToZero(report);
  bool replay_ok = true;
  EngineLayers engine;
  std::map<std::string, double> traced_s;
  std::vector<std::string> lines;
  std::vector<mbc::QueryResponse> responses;
  for (size_t g = 0; g < cfg.readers.size(); ++g) {
    const mbc::SignedGraph& graph = cfg.readers[g].graph;
    const Answers& ref = reader_refs[g].answers;
    for (const ReplayOutcome& replay : replays[g]) {
      replay_ok = ReplayMatches(replay, ref.mbc.at(replay.tau), &layers) &&
                  replay_ok;
    }
    RoundTimes times;
    const Answers traced = RunRound(graph, reader_set, tracer, &times);
    CheckAnswers(graph, reader_set, traced, &ref, report);
    for (const auto& [key, seconds] : times.seconds) traced_s[key] += seconds;
    AddEngineLayers(graph, reader_set, ref, reader_mbc_s[g], tracer, &engine,
                    report);
    RoundAsWire(reader_set, ref, &lines, &responses);
  }
  if (!replay_ok) return 1;
  ReportLayers(layers, tracer, report);
  ReportEngineLayers(engine, report);
  report->Set("core.par_s", library_s["mbc_par_s"], "s");
  report->Set("core.heu_search_s", traced_s["heu_s"], "s");
  report->Set("graph.load_ms", load_ms, "ms");
  size_t resident = 0;
  for (const ServeGraph& g : cfg.readers) {
    resident +=
        mbc::MappedResidentBytes(g.graph.MappedBase(), g.graph.MappedBytes());
  }
  report->Set("graph.resident_mb",
              static_cast<double>(resident) / (1024.0 * 1024.0), "MiB");

  double traced_total = 0;
  for (const auto& [key, seconds] : traced_s) traced_total += seconds;
  report->Set("trace.overhead_frac",
              (traced_total - reader_round_s) / reader_round_s,
              "fraction");

  double parse_us = 0, serialize_us = 0;
  MeasureCodec(lines, responses, &parse_us, &serialize_us);
  report->Set("service.parse_us", parse_us, "us");
  report->Set("service.serialize_us", serialize_us, "us");
  ReportServiceLayers(scored, *final_stats, report);
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

int ProbeServiceLayers(const RunArgs& args, const std::string& path,
                       const mbc::SignedGraph& graph, const QuerySet& set,
                       const Answers& answers, Report* report) {
  if (args.serve_binary.empty() || access(args.serve_binary.c_str(), X_OK)) {
    std::cerr << "perfbench: the service probe needs --serve-binary\n";
    return 2;
  }
  std::vector<Request> schedule;
  auto add = [&](Request r) {
    r.due_s = 0.3 * static_cast<double>(schedule.size());
    schedule.push_back(std::move(r));
  };
  auto heu = [&](uint32_t tau) {
    Request r;
    r.line = "{\"id\":\"h" + std::to_string(schedule.size()) +
             "\",\"graph\":\"g\",\"kind\":\"mbc_heu\",\"tau\":" +
             std::to_string(tau) + "}";
    r.expected = ExpectClique("mbc_heu", answers.heu.at(tau).clique);
    return r;
  };
  // Each heuristic query twice (a miss, then a hit), one batch of fresh
  // edges added and removed again, the first query once more, stats.
  for (uint32_t tau : set.heu_taus) {
    add(heu(tau));
    add(heu(tau));
  }
  std::mt19937_64 rng(args.seed);
  std::string added, removed;
  for (int edges = 0; edges < 16;) {
    const uint32_t u = static_cast<uint32_t>(rng() % graph.NumVertices());
    const uint32_t v = static_cast<uint32_t>(rng() % graph.NumVertices());
    if (u == v || graph.EdgeSign(u, v)) continue;
    const std::string pair = std::to_string(u) + " " + std::to_string(v);
    AppendItem(&added, ";", pair + " +");
    AppendItem(&removed, ";", pair);
    ++edges;
  }
  for (const auto& [op, edges] : {std::pair{"add_edges", added},
                                  std::pair{"remove_edges", removed}}) {
    Request m;
    m.line = std::string("{\"op\":\"") + op +
             "\",\"name\":\"g\",\"edges\":\"" + edges + "\"}";
    m.mutation = true;
    add(m);
  }
  add(heu(set.heu_taus.front()));
  Request stats;
  stats.line = "{\"op\":\"stats\"}";
  stats.stats = true;
  add(stats);

  ServerProcess server;
  if (!server.Start(args.serve_binary, HostCpus() > 1 ? HostCpus() - 1 : 1)) {
    return 1;
  }
  const int fd = Connect(server.port());
  if (fd < 0) return 1;
  const std::optional<std::string> loaded = RoundTrip(
      fd, "{\"op\":\"load\",\"name\":\"g\",\"path\":" + JsonString(path) +
              "}");
  if (!loaded || Field(*loaded, "ok") != "true") {
    close(fd);
    return 1;
  }
  Tracer off(false);
  std::vector<Outcome> outcomes;
  double elapsed_s = 0;
  const bool ran = RunSchedule({fd}, schedule, off, &outcomes, &elapsed_s);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  const std::optional<std::string> final_stats =
      ran ? RoundTrip(fd, "{\"op\":\"stats\"}") : std::nullopt;
  close(fd);
  server.Stop();
  if (!final_stats) return 1;
  const Scored scored = Score(schedule, outcomes, 1e9, report);
  ReportServiceLayers(scored, *final_stats, report);
  return 0;
}

}  // namespace perfbench

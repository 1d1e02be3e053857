// Shared pieces of the end-to-end benchmark: the run's command line, the
// result it prints, in-memory spans, and small statistics helpers.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short run: the self-test checks metric names only.
  bool small = false;
  /// Moves one vertex of the first exact answer to the other side before
  /// it is checked, to prove that a wrong answer reaches `failed`.
  bool corrupt = false;
  std::string serve_binary;  // mbc_serve, for the serve_mixed workload
  std::string work_dir;      // work files, inside the checkout
  std::string trace_path;    // where spans are written (trace runs)
};

/// What one run prints: the last stdout line plus provenance lines.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records one checked answer; a failure message goes to stderr.
  void Check(bool ok, const std::string& what);
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what);
  void Provenance(const std::string& key, const std::string& json_value) {
    provenance_[key] = json_value;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// A wrong answer (as opposed to a refused or shed one).
  void MarkWrong() { wrong_ = true; }
  /// Prints the provenance line, then the result object as the last line.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> provenance_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool wrong_ = false;
};

/// One timed interval recorded around a call into the library or the
/// service. `count` > 1 marks an aggregate of that many calls of one inner
/// function (per-network calls inside one query): its end - start is the
/// calls' summed time, laid out from the start of its parent span.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int32_t parent = -1;
  uint64_t request = 0;
  uint64_t count = 1;
  double duration() const { return end_s - start_s; }
};

/// In-memory span recorder; disabled unless the run is traced. Spans are
/// written out once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double Now() const { return SecondsSince(origin_); }
  /// Opens a span on the calling thread's stack; returns its index or -1.
  int32_t Begin(const std::string& name, uint64_t request);
  void End(int32_t index);
  /// Adds an already-measured span (aggregates, client-side requests).
  int32_t Add(Span span);
  /// Index of the innermost open span (-1 when none).
  int32_t Current() const { return stack_.empty() ? -1 : stack_.back(); }
  /// Self time per span name: duration minus the durations of children.
  std::map<std::string, double> SelfSeconds() const;
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;  // single-threaded Begin/End only
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer), index_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Quantile by linear interpolation between order statistics, the same
/// rule as Python's statistics.quantiles(method="inclusive").
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// VmHWM of a process from /proc/<pid>/status, in MiB (0 if unreadable).
double PeakRssMb(int pid);

/// Number of CPUs this process may run on.
unsigned HostCpus();

std::string JsonString(const std::string& text);

/// Records nproc, the SIMD kernel set, the build type, the compiler and
/// the seed under "host"/"seed".
void RecordHostProvenance(const RunArgs& args, Report* report);

int RunLibraryWorkload(const RunArgs& args, Report* report);
int RunServeWorkload(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_

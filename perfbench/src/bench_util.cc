#include "bench_util.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    wrong_ = true;
    Fail(what);
  }
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: failed: " << what << "\n";
}

void Report::Print() const {
  std::ostringstream prov;
  prov << "{";
  bool first = true;
  for (const auto& [key, value] : provenance_) {
    prov << (first ? "" : ",") << JsonString(key) << ":" << value;
    first = false;
  }
  prov << "}";
  std::cout << "provenance " << prov.str() << "\n";

  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (wrong_ ? "false" : "true")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  first = true;
  for (const auto& [name, value] : metrics_) {
    const double v = std::isfinite(value.value) ? value.value : 0.0;
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << v
        << ", \"unit\": " << JsonString(value.unit) << "}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int32_t Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_s = Now();
  span.parent = Current();
  span.request = request;
  const int32_t index = Add(std::move(span));
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_s = now;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int32_t Tracer::Add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child[span.parent] += span.duration();
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].duration() - child[i];
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self")
                                        : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

unsigned HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void RecordHostProvenance(const RunArgs& args, Report* report) {
  std::ostringstream host;
  host << "{\"nproc\":" << HostCpus()
       << ",\"simd\":" << JsonString(mbc::simd::ActiveName())
       << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << JsonString(__VERSION__) << "}";
  report->Provenance("host", host.str());
  report->Provenance("seed", std::to_string(args.seed));
  report->Provenance("workload", JsonString(args.workload));
  report->Provenance("trace", args.trace ? "true" : "false");
}

}  // namespace perfbench

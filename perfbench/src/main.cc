// mbc_perfbench: runs one benchmark workload and prints its metrics as the
// last line of stdout. perfbench/run.py builds this program and calls it;
// see perfbench/README.md for the workloads and metrics.
//
//   mbc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--serve-binary PATH] [--trace-out FILE]
//                 [--small 1] [--corrupt 1]
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--small") {
      args.small = value == "1";
    } else if (flag == "--corrupt") {
      args.corrupt = value == "1";
    } else if (flag == "--serve-binary") {
      args.serve_binary = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      std::cerr << "mbc_perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    std::cerr << "usage: mbc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--serve-binary PATH]\n";
    return 2;
  }

  perfbench::Report report;
  perfbench::RecordHostProvenance(args, &report);
  const int code = args.workload == "serve_mixed"
                       ? perfbench::RunServeWorkload(args, &report)
                       : perfbench::RunLibraryWorkload(args, &report);
  if (code != 0) return code;
  report.Print();
  return 0;
}

// Copyright 2026 The balanced-clique Authors.
//
// Shared plumbing for the experiment binaries (one per table/figure of the
// paper). Handles dataset selection/scaling via environment variables so
// every binary runs with no arguments:
//   MBC_SCALE        dataset scale factor (default 1/16; 1.0 = paper size)
//   MBC_DATASETS     comma-separated dataset-name filter (default: all)
//   MBC_TIME_LIMIT   per-run budget in seconds for exponential baselines
//                    (default 5; the paper instead waited hours)
//   MBC_MEMORY_LIMIT_MB  optional memory budget applied by
//                    ConfigureRunContext (unset = unlimited)
#ifndef MBC_BENCHLIB_EXPERIMENT_H_
#define MBC_BENCHLIB_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/common/execution.h"
#include "src/datasets/registry.h"
#include "src/graph/signed_graph.h"

namespace mbc {

struct ExperimentDataset {
  DatasetSpec spec;
  SignedGraph graph;
};

/// Datasets selected by MBC_DATASETS (default all), generated at MBC_SCALE.
/// Prints a one-line note per dataset as it is generated.
std::vector<ExperimentDataset> LoadExperimentDatasets();

/// Per-run time budget for exponential baselines (MBC, PF-E).
double BaselineTimeLimitSeconds();

/// Configures `exec` from the environment: a deadline of
/// `time_limit_seconds` (pass e.g. BaselineTimeLimitSeconds(); <= 0 means
/// no deadline) and a memory budget of MBC_MEMORY_LIMIT_MB megabytes when
/// that variable is set. Returns `exec` for one-line call sites. The
/// deadline is absolute, so configure a fresh context per timed call.
ExecutionContext* ConfigureRunContext(ExecutionContext* exec,
                                      double time_limit_seconds);

/// Prints the standard experiment banner (title + scale + substitutions
/// note).
void PrintExperimentHeader(const std::string& title,
                           const std::string& paper_artifact);

}  // namespace mbc

#endif  // MBC_BENCHLIB_EXPERIMENT_H_

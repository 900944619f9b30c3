// Shared types of the benchmark: command-line arguments, the
// metrics a run reports, and the workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// serve_exact's offered load, requests/s. The benchmark runs at the
  /// default; other rates reproduce the knee table in README.md.
  double serve_rate = 1000.0;
  /// Working directory for the daemon socket (relative: AF_UNIX paths
  /// are short) and, under traces/, the traced run's spans.
  std::string work_dir = ".bench_build/perfbench";
  std::string trace_dir() const { return work_dir + "/traces"; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `problems` lists every failed correctness or
/// validity check; a run with any is not correct.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The workloads. Each builds its inputs from args.seed, does a fixed
/// amount of work scaled by args.seconds, checks every result, and
/// returns the end-to-end metrics (args.trace false) or the per-layer
/// ones (args.trace true).
Outcome run_sweep(const Args& args);
Outcome run_serve(const Args& args);

/// The per-layer metric names, in report order; a traced run reports
/// every one (0 for a layer the workload does not reach).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Adds every per-layer metric to `outcome`, taking values by name and 0
/// for the ones `values` lacks.
void add_per_layer(Outcome& outcome,
                   const std::map<std::string, double>& values);

}  // namespace perfbench

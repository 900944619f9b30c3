// perfbench: the end-to-end benchmark of the projection pipeline.
//
//   perfbench --workload <sweep_cold|sweep_detailed|serve_exact>
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//             [--serve-rate R]
//
// Human-readable progress goes to stderr. The last line on stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit status 0 means the run completed (check
// "correct"); 2 means bad arguments or a run that could not complete.
// See README.md for what each workload and metric means.
#include <sys/resource.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"hw.registry_load_ms", "ms"},
      {"pcie.calibrate_ms", "ms"},
      {"pcie.calibration_hit_ratio", "ratio"},
      {"pcie.transfer_us", "us"},
      {"workloads.skeleton_us", "us"},
      {"workloads.skeleton_hit_ratio", "ratio"},
      {"dataflow.usage_us", "us"},
      {"dataflow.usage_hit_ratio", "ratio"},
      {"gpumodel.explore_us", "us"},
      {"gpumodel.variants_per_job", "count"},
      {"gpumodel.projection_hit_ratio", "ratio"},
      {"cpumodel.baseline_us", "us"},
      {"sim.wave_us", "us"},
      {"sim.cohort_ms", "ms"},
      {"sim.cohort_events_per_job", "count"},
      {"sim.cohort_ns_per_event", "ns"},
      {"core.engine_us", "us"},
      {"core.self_us", "us"},
      {"exec.job_us_p50", "us"},
      {"exec.job_us_tail", "us"},
      {"exec.self_pct", "%"},
      {"serve.ping_rtt_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.render_us", "us"},
      {"serve.handle_ms_p50", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_depth_p99", "count"},
      {"serve.coalesce_ratio", "ratio"},
      {"serve.shed_ratio", "ratio"},
      {"serve.gen_lag_ms_tail", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void add_per_layer(Outcome& outcome,
                   const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    outcome.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "<sweep_cold|sweep_detailed|serve_exact> --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--serve-rate R]\n",
               argv0);
  return 2;
}

bool make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

void print_result(const Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args.seconds < 1 || args.seconds > 600)
        return usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage(argv[0]);
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--serve-rate") {
      args.serve_rate = std::strtod(value, &end);
      if (*end != '\0' || !(args.serve_rate > 0.0)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);
  if (!make_dirs(args.trace_dir())) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.trace_dir().c_str());
    return 2;
  }

  try {
    Outcome outcome;
    if (args.workload == "serve_exact") {
      outcome = run_serve(args);
    } else if (args.workload == "sweep_cold" ||
               args.workload == "sweep_detailed") {
      outcome = run_sweep(args);
    } else {
      return usage(argv[0]);
    }
    for (const std::string& problem : outcome.problems)
      std::fprintf(stderr, "FAILED CHECK: %s\n", problem.c_str());
    print_result(outcome);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}

// The sweep workloads: sweep_cold and sweep_detailed.
//
// Each run does a fixed number of rounds (scaled by --seconds, never by
// how fast the rounds go) on one 2-worker exec::SweepEngine without a
// journal. A round is one sweep a user would submit; its wall time is the
// round latency. Right after each round is timed, every job is run again
// through a reference job function with the process-wide caches
// bypassed, and a job counts as ok only if all five result scalars match
// bit for bit. The round counts are set so a run takes about --seconds
// on a 4-core host.
//
// The traced run (--trace 1) alternates untraced and traced rounds, so
// both see the same host conditions; the traced rounds run the
// re-composed pipeline of traced_job.h.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "exec/sweep_request.h"
#include "generators.h"
#include "hw/machine_registry.h"
#include "hw/registry.h"
#include "setup.h"
#include "stats.h"
#include "traced_job.h"
#include "util/logging.h"

namespace perfbench {

namespace {

using namespace grophecy;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kWorkers = 2;
constexpr std::size_t kSetupRepeats = 21;
/// Round-latency tails are taken per window of this many rounds.
constexpr std::size_t kLatencyWindow = 100;
/// Job-time tails (exec.job_us_tail) per window of this many jobs.
constexpr std::size_t kJobWindow = 1000;

/// The five scalars every journaled result carries.
struct Scalars {
  bool ok = false;
  double values[5] = {0, 0, 0, 0, 0};
  std::string machine;

  static Scalars of(const exec::JobOutcome& outcome) {
    Scalars s;
    s.ok = outcome.ok();
    const exec::JobRecord& r = outcome.record;
    s.values[0] = r.predicted_kernel_s;
    s.values[1] = r.measured_kernel_s;
    s.values[2] = r.predicted_transfer_s;
    s.values[3] = r.measured_transfer_s;
    s.values[4] = r.measured_cpu_s;
    s.machine = r.machine;
    return s;
  }

  bool same(const Scalars& other) const {
    if (!ok || !other.ok || machine != other.machine) return false;
    for (int i = 0; i < 5; ++i)
      if (!(values[i] == other.values[i])) return false;
    return true;
  }

  /// |predicted - measured| / measured GPU time (kernel + transfer), %.
  double model_error_pct() const {
    const double predicted = values[0] + values[2];
    const double measured = values[1] + values[3];
    return 100.0 * std::fabs(predicted - measured) / measured;
  }
};

struct Round {
  std::vector<exec::JobSpec> specs;
  std::uint64_t base_seed = 0;
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> job_s;
  bool verified = false;  ///< Every job matched the reference.
};

/// What differs between the sweeps.
struct SweepConfig {
  /// The cold sweep: generated sizes (so the mirror job function), one
  /// base seed for the whole run, and artifact caches kept across set-ups
  /// so no size is ever built twice. Otherwise the paper grid is swept
  /// with a fresh base seed per round.
  bool cold = false;
  std::vector<std::string> machines;  ///< Calibrated in set-up.
  core::ProjectionOptions options;
  std::size_t rounds = 0;
  std::size_t rate_window = 1;  ///< Rounds per jobs_per_s window.
  double slo_ms = 0.0;          ///< Round latency limit.
  std::vector<exec::JobSpec> grid;  ///< Paper-grid specs (empty when cold).
};

/// The paper grid at `iterations` without SRAD 2048^2 and 4096^2.
std::vector<exec::JobSpec> paper_grid(const std::vector<int>& iterations) {
  std::vector<exec::JobSpec> specs =
      exec::SweepRequest::on(hw::anl_eureka())
          .workloads(paper_workload_names())
          .sizes(exec::all_sizes)
          .iterations(iterations)
          .jobs();
  specs.erase(std::remove_if(specs.begin(), specs.end(),
                             [](const exec::JobSpec& spec) {
                               return spec.workload == "SRAD" &&
                                      spec.size_label != "1024 x 1024";
                             }),
              specs.end());
  return specs;
}

SweepConfig make_config(const std::string& workload, int seconds) {
  SweepConfig config;
  const auto scaled = [seconds](double per_second, std::size_t floor) {
    return std::max<std::size_t>(
        floor, static_cast<std::size_t>(std::lround(per_second * seconds)));
  };
  if (workload == "sweep_cold") {
    config.cold = true;
    config.machines = hw::MachineRegistry::global().names();
    config.rounds = std::min(scaled(20, 24), ColdJobGenerator::max_rounds());
    config.rate_window = 10;
    config.slo_ms = 50.0;
  } else if (workload == "sweep_detailed") {
    config.machines = {hw::anl_eureka().name};
    config.options.detailed_sim = true;
    config.rounds = scaled(3, 12);
    config.rate_window = 2;
    config.slo_ms = 600.0;
    config.grid = paper_grid({1, 8});
  } else {
    throw std::invalid_argument("unknown sweep workload " + workload);
  }
  return config;
}

exec::SweepEngine::JobFn job_fn_for(const SweepConfig& config,
                                    const core::ProjectionOptions& options,
                                    std::uint64_t base_seed) {
  if (config.cold)
    return mirror_job_fn(hw::anl_eureka(), options, base_seed);
  return exec::SweepRequest::on(hw::anl_eureka())
      .options(options)
      .seed(base_seed)
      .job_fn();
}

/// Cold-sweep sanity: on Table I sizes the mirror job function equals
/// SweepRequest::job_fn, so the generated-size jobs run the same code.
void check_mirror(Outcome& outcome) {
  const std::uint64_t base = 0x5eed;
  const exec::SweepEngine::JobFn canonical =
      exec::SweepRequest::on(hw::anl_eureka()).seed(base).job_fn();
  const exec::SweepEngine::JobFn mirror =
      mirror_job_fn(hw::anl_eureka(), {}, base);
  for (const std::string& name : paper_workload_names()) {
    const workloads::Workload& workload =
        workloads::PaperSuite::instance().find(name);
    const exec::JobSpec spec{name, workload.paper_data_sizes()[0].label, 8,
                             "volta_v100"};
    const core::ProjectionReport a = canonical(spec);
    const core::ProjectionReport b = mirror(spec);
    if (a.predicted_kernel_s != b.predicted_kernel_s ||
        a.measured_kernel_s != b.measured_kernel_s ||
        a.predicted_transfer_s != b.predicted_transfer_s ||
        a.measured_transfer_s != b.measured_transfer_s ||
        a.measured_cpu_s != b.measured_cpu_s)
      outcome.problems.push_back("mirror job function differs from "
                                 "SweepRequest::job_fn on " + spec.key());
  }
}

}  // namespace

Outcome run_sweep(const Args& args) {
  const SweepConfig config = make_config(args.workload, args.seconds);
  Outcome outcome;
  util::set_log_level(util::LogLevel::kError);

  // --- the rounds' inputs, all derived from the seed up front ---
  std::vector<Round> rounds(config.rounds);
  {
    ColdJobGenerator cold(args.seed, hw::MachineRegistry::global().names());
    const std::uint64_t run_seed = derive_seed(args.seed, 0);
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      rounds[r].base_seed =
          config.cold ? run_seed : derive_seed(args.seed, r + 1);
      rounds[r].specs = config.cold ? cold.next_round() : config.grid;
      rounds[r].traced = args.trace && r % 2 == 1;
    }
  }
  if (config.cold) check_mirror(outcome);

  // --- set-up, from cold: the caches it fills are cleared first. It is
  // repeated kSetupRepeats times, spread over the run between rounds so
  // the median samples the host across the whole period; each repeat
  // leaves the state the next round expects. ---
  std::vector<SetupTimes> setups;
  const auto set_up = [&](std::uint64_t base_seed) {
    clear_process_caches(/*artifacts=*/!config.cold);
    SetupTimes times;
    Clock::time_point start = Clock::now();
    load_registry();
    times.registry_s = seconds_since(start);
    start = Clock::now();
    calibrate_machines(config.machines, config.options, base_seed);
    times.calibrate_s = seconds_since(start);
    start = Clock::now();
    fill_grid_caches(config.grid);
    times.grid_s = seconds_since(start);
    setups.push_back(times);
  };
  std::size_t next_setup = 0;  ///< Index of the next set-up repeat.

  // --- rounds, each verified right after it is timed ---
  exec::SweepOptions engine_options;
  engine_options.workers = kWorkers;
  exec::SweepEngine engine(engine_options);
  TraceStore store;
  LayerCounters counters;
  CacheCounts traced_caches;
  std::vector<double> model_errors;
  std::uint64_t traced_mismatches = 0;
  const core::ProjectionOptions ref_options = reference_options(config.options);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    Round& round = rounds[r];
    while (next_setup < kSetupRepeats &&
           next_setup * rounds.size() / kSetupRepeats <= r) {
      set_up(round.base_seed);
      ++next_setup;
    }
    const CacheCounts before = CacheCounts::now();
    const Clock::time_point start = Clock::now();
    const exec::SweepEngine::JobFn fn =
        round.traced ? traced_job_fn(hw::anl_eureka(), config.options,
                                     round.base_seed, store, counters)
                     : job_fn_for(config, config.options, round.base_seed);
    const exec::SweepSummary summary = engine.run(round.specs, fn);
    round.wall_s = seconds_since(start);
    if (round.traced) traced_caches.add_delta(before, CacheCounts::now());
    for (const exec::JobOutcome& job : summary.outcomes)
      round.job_s.push_back(job.elapsed_s);

    const exec::SweepSummary reference = engine.run(
        round.specs, job_fn_for(config, ref_options, round.base_seed));
    round.verified = true;
    for (std::size_t i = 0; i < round.specs.size(); ++i) {
      ++outcome.attempted;
      const Scalars result = Scalars::of(summary.outcomes[i]);
      if (!result.ok) ++outcome.failed;
      if (result.same(Scalars::of(reference.outcomes[i]))) {
        model_errors.push_back(result.model_error_pct());
      } else {
        round.verified = false;
        if (round.traced) ++traced_mismatches;
      }
    }
  }
  const SetupSummary setup = summarize(setups);
  const std::uint64_t verified = model_errors.size();
  if (verified != outcome.attempted)
    outcome.problems.push_back(
        std::to_string(outcome.attempted - verified) + " of " +
        std::to_string(outcome.attempted) +
        " jobs differ from the reference pipeline");
  if (traced_mismatches > 0)
    outcome.problems.push_back(
        "reconciliation: " + std::to_string(traced_mismatches) +
        " traced jobs differ from Grophecy::project");

  // --- end-to-end metrics (untraced rounds only) ---
  std::vector<double> counts, walls, latencies_ms, job_s;
  std::vector<double> traced_counts, traced_walls;
  std::size_t within_slo = 0, untraced_rounds = 0;
  for (const Round& round : rounds) {
    if (round.traced) {
      traced_counts.push_back(static_cast<double>(round.specs.size()));
      traced_walls.push_back(round.wall_s);
      continue;
    }
    ++untraced_rounds;
    counts.push_back(static_cast<double>(round.specs.size()));
    walls.push_back(round.wall_s);
    latencies_ms.push_back(round.wall_s * 1e3);
    job_s.insert(job_s.end(), round.job_s.begin(), round.job_s.end());
    if (round.verified && round.wall_s * 1e3 <= config.slo_ms) ++within_slo;
  }
  const double jobs_per_s = windowed_rate(counts, walls, config.rate_window);
  const double mean_error =
      model_errors.empty()
          ? 0.0
          : std::accumulate(model_errors.begin(), model_errors.end(), 0.0) /
                static_cast<double>(model_errors.size());

  std::fprintf(stderr,
               "%s: %zu rounds x %zu jobs, %.0f jobs/s, round p50 %.3f ms, "
               "setup %.3f ms, %llu/%llu verified\n",
               args.workload.c_str(), rounds.size(), rounds[0].specs.size(),
               jobs_per_s, median(latencies_ms), setup.total_s * 1e3,
               static_cast<unsigned long long>(verified),
               static_cast<unsigned long long>(outcome.attempted));

  if (!args.trace) {
    outcome.add("setup_s", setup.total_s, "s");
    outcome.add("jobs_per_s", jobs_per_s, "1/s");
    outcome.add("latency_p50_ms", median(latencies_ms), "ms");
    outcome.add("latency_tail_ms", windowed_tail(latencies_ms, kLatencyWindow),
                "ms");
    outcome.add("slo_ratio",
                static_cast<double>(within_slo) /
                    static_cast<double>(untraced_rounds),
                "ratio");
    outcome.add("ok_ratio",
                static_cast<double>(verified) /
                    static_cast<double>(outcome.attempted),
                "ratio");
    outcome.add("model_err_pct", mean_error, "%");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return outcome;
  }

  // --- per-layer metrics (traced run) ---
  std::map<std::string, double> values = pipeline_layer_values(store, counters);
  const double traced_job_us = layer_sum_us(values);
  const double untraced_job_us =
      std::accumulate(job_s.begin(), job_s.end(), 0.0) /
      static_cast<double>(job_s.size()) * 1e6;
  const double traced_rate =
      windowed_rate(traced_counts, traced_walls, config.rate_window);
  const double overhead_pct = (jobs_per_s / traced_rate - 1.0) * 100.0;
  const double job_gap_pct = (traced_job_us / untraced_job_us - 1.0) * 100.0;
  std::fprintf(stderr,
               "reconciliation: layer self times sum to %.2f us/job, "
               "untraced job %.2f us (%+.2f%%), round-rate overhead %+.2f%%\n",
               traced_job_us, untraced_job_us, job_gap_pct, overhead_pct);
  if (std::fabs(job_gap_pct - overhead_pct) > kReconcileSlackPct)
    outcome.problems.push_back(
        "reconciliation: per-layer self times sum to " +
        std::to_string(traced_job_us) + " us/job, untraced job is " +
        std::to_string(untraced_job_us) + " us");

  std::vector<double> job_us;
  for (double s : job_s) job_us.push_back(s * 1e6);
  const double pool_busy_s = std::accumulate(job_s.begin(), job_s.end(), 0.0);
  const double pool_wall_s =
      kWorkers * std::accumulate(walls.begin(), walls.end(), 0.0);
  values["hw.registry_load_ms"] = setup.registry_ms;
  values["pcie.calibrate_ms"] = setup.calibrate_ms;
  values["pcie.calibration_hit_ratio"] =
      traced_caches.hit_ratio(CacheCounts::kCalibration);
  values["workloads.skeleton_hit_ratio"] =
      traced_caches.hit_ratio(CacheCounts::kSkeleton);
  values["dataflow.usage_hit_ratio"] =
      traced_caches.hit_ratio(CacheCounts::kUsage);
  values["exec.job_us_p50"] = median(job_us);
  values["exec.job_us_tail"] = windowed_tail(job_us, kJobWindow);
  values["exec.self_pct"] = 100.0 * (1.0 - pool_busy_s / pool_wall_s);
  values["trace.overhead_pct"] = overhead_pct;
  add_per_layer(outcome, values);

  const std::string path =
      args.trace_dir() + "/" + args.workload + ".spans.tsv";
  if (!store.write(path))
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 path.c_str());
  return outcome;
}

}  // namespace perfbench

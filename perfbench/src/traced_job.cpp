#include "traced_job.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/experiment.h"
#include "cpumodel/cpu_sim.h"
#include "dataflow/usage_analyzer.h"
#include "dataflow/usage_cache.h"
#include "generators.h"
#include "gpumodel/explorer.h"
#include "hw/machine_registry.h"
#include "pcie/bus.h"
#include "pcie/calibration_cache.h"
#include "pcie/calibrator.h"
#include "sim/event_sim.h"
#include "sim/gpu_sim.h"
#include "util/logging.h"
#include "util/units.h"
#include "workloads/skeleton_cache.h"

namespace perfbench {

namespace {

using grophecy::core::ProjectionOptions;
using grophecy::core::ProjectionReport;

/// The per-component seeds core::Grophecy derives from its master seed.
struct Seeds {
  std::uint64_t calibration_bus;
  std::uint64_t measurement_bus;
  std::uint64_t gpu;
  std::uint64_t cpu;
};

Seeds derive_component_seeds(std::uint64_t master) {
  grophecy::util::Rng rng(master);
  Seeds seeds{};
  seeds.calibration_bus = rng.next_u64();
  seeds.measurement_bus = rng.next_u64();
  seeds.gpu = rng.next_u64();
  seeds.cpu = rng.next_u64();
  return seeds;
}

/// Times a detailed launch through the simulator while counting the
/// events its cohort engine processes. KernelTimer::measure_launch_seconds
/// drives this decorator, so the mean is the pipeline's own arithmetic.
class CountingTimer final : public grophecy::sim::KernelTimer {
 public:
  explicit CountingTimer(grophecy::sim::EventGpuSimulator& inner)
      : inner_(inner) {}

  double run_launch_seconds(
      const grophecy::gpumodel::KernelCharacteristics& kc) override {
    const double seconds = inner_.run_launch_seconds(kc);
    events_ += inner_.last_stats().events;
    return seconds;
  }

  std::uint64_t events() const { return events_; }

 private:
  grophecy::sim::EventGpuSimulator& inner_;
  std::uint64_t events_ = 0;
};

/// Per-job options exactly as SweepRequest::job_fn sets them.
ProjectionOptions job_options(ProjectionOptions options,
                              const exec::JobSpec& spec,
                              std::uint64_t base_seed) {
  options.seed = spec.stream_seed(base_seed);
  options.calibration_seed = base_seed;
  return options;
}

const hw::MachineSpec& job_machine(const hw::MachineSpec& fallback,
                                   const exec::JobSpec& spec) {
  return spec.machine.empty()
             ? fallback
             : hw::MachineRegistry::global().find(spec.machine);
}

/// core::Grophecy's constructor and project(), spanned per layer.
ProjectionReport traced_projection(const hw::MachineSpec& machine,
                                   const workloads::Workload& workload,
                                   const workloads::DataSize& size,
                                   int iterations, ProjectionOptions options,
                                   JobTrace& trace, LayerCounters& counters) {
  using namespace grophecy;

  // --- engine construction (core::ExperimentRunner -> core::Grophecy) ---
  std::int32_t span = trace.open("core.engine");
  options.validate();
  const Seeds seeds = derive_component_seeds(options.seed);
  pcie::SimulatedBus measurement_bus(machine.pcie, seeds.measurement_bus);
  const pcie::CalibrationReport calibration =
      calibrate_bus(machine, options,
                    options.calibration_seed.value_or(seeds.calibration_bus));
  gpumodel::Explorer explorer(machine.gpu, options.explorer);
  sim::GpuSimulator gpu_sim(machine.gpu, seeds.gpu);
  sim::EventGpuSimulator event_sim(machine.gpu, seeds.gpu, options.event_sim);
  cpumodel::CpuSimulator cpu_sim(machine.cpu, seeds.cpu);
  if (options.measurement_noise)
    measurement_bus.set_noise(*options.measurement_noise);
  // The constructor's log lines are formatted whether or not the level
  // prints them; keep their cost in the span.
  GROPHECY_LOG(kInfo) << "calibrated " << machine.name << ": H2D "
                      << calibration.model.h2d.describe() << ", D2H "
                      << calibration.model.d2h.describe();
  if (calibration.used_fallback)
    GROPHECY_LOG(kWarn) << machine.name
                        << ": calibration degraded to spec-derived model — "
                        << calibration.warning;
  trace.close(span);

  // --- skeleton (core::ExperimentRunner::run) ---
  span = trace.open("workloads.skeleton");
  std::shared_ptr<const workloads::BuiltSkeleton> built;
  std::optional<skeleton::AppSkeleton> uncached_app;
  if (options.use_artifact_caches)
    built = workloads::cached_skeleton(workload, size, iterations);
  else
    uncached_app = workload.make_skeleton(size, iterations);
  trace.close(span);
  const skeleton::AppSkeleton& app = built ? built->app : *uncached_app;

  // --- core::Grophecy::project ---
  app.validate();
  ProjectionReport report;
  report.app_name = app.name;
  report.machine_name = machine.name;
  report.iterations = app.iterations;
  report.calibration = calibration.summary();

  span = trace.open("dataflow.usage");
  if (built) {
    report.plan = dataflow::cached_usage(built->usage_key, app)->plan;
  } else {
    dataflow::UsageAnalyzer analyzer;
    report.plan = analyzer.analyze(app);
  }
  trace.close(span);

  std::vector<bool> touched(app.arrays.size(), false);
  for (const skeleton::KernelSkeleton& kernel : app.kernels)
    for (const skeleton::Statement& stmt : kernel.body)
      for (const skeleton::ArrayRef& ref : stmt.refs)
        touched[static_cast<std::size_t>(ref.array)] = true;
  for (std::size_t i = 0; i < app.arrays.size(); ++i)
    if (touched[i]) report.device_footprint_bytes += app.arrays[i].bytes();
  report.fits_device_memory =
      report.device_footprint_bytes <= machine.gpu.memory_bytes;
  if (!report.fits_device_memory)
    GROPHECY_LOG(kWarn) << app.name << ": device footprint "
                        << util::format_bytes(report.device_footprint_bytes)
                        << " exceeds " << machine.gpu.name << " memory ("
                        << util::format_bytes(machine.gpu.memory_bytes)
                        << "); projection assumes chunk-free residency";

  const bool try_fusion = app.kernels.size() == 1 && app.iterations > 1;
  for (const skeleton::KernelSkeleton& kernel : app.kernels) {
    core::KernelResult result;
    result.name = kernel.name;
    gpumodel::ProjectedKernel best{};
    double best_total = std::numeric_limits<double>::infinity();
    std::int64_t best_launches = app.iterations;
    const std::vector<int> fusions =
        try_fusion ? options.fusion_candidates : std::vector<int>{1};
    for (int fuse : fusions) {
      if (fuse < 1 || fuse > app.iterations) continue;
      span = trace.open("gpumodel.explore");
      gpumodel::ProjectedKernel candidate = explorer.best(app, kernel, fuse);
      trace.close(span);
      const std::int64_t launches = (app.iterations + fuse - 1) / fuse;
      const double total =
          candidate.time.total_s * static_cast<double>(launches);
      if (total < best_total) {
        best_total = total;
        best = std::move(candidate);
        best_launches = launches;
      }
    }
    if (!std::isfinite(best_total))
      throw std::runtime_error("traced projection: no finite variant");

    result.projected = std::move(best);
    result.launches = best_launches;
    result.predicted_s = best_total;
    double per_launch = 0.0;
    if (options.detailed_sim) {
      span = trace.open("sim.cohort");
      CountingTimer timer(event_sim);
      per_launch = timer.measure_launch_seconds(
          result.projected.characteristics, options.measurement_runs);
      trace.close(span);
      counters.cohort_events += timer.events();
    } else {
      span = trace.open("sim.wave");
      per_launch = gpu_sim.measure_launch_seconds(
          result.projected.characteristics, options.measurement_runs);
      trace.close(span);
    }
    result.measured_s = per_launch * static_cast<double>(best_launches);
    report.predicted_kernel_s += result.predicted_s;
    report.measured_kernel_s += result.measured_s;
    report.kernels.push_back(std::move(result));
  }

  span = trace.open("pcie.transfer");
  auto process_transfers = [&](const std::vector<dataflow::Transfer>& list) {
    for (const dataflow::Transfer& transfer : list) {
      core::TransferResult result;
      result.transfer = transfer;
      result.predicted_s = calibration.model.predict_seconds(
          transfer.bytes, transfer.direction);
      result.measured_s = measurement_bus.measure_mean(
          transfer.bytes, transfer.direction, options.memory,
          options.measurement_runs);
      report.predicted_transfer_s += result.predicted_s;
      report.measured_transfer_s += result.measured_s;
      report.transfers.push_back(std::move(result));
    }
  };
  process_transfers(report.plan.host_to_device);
  process_transfers(report.plan.device_to_host);
  trace.close(span);

  span = trace.open("cpumodel.baseline");
  report.measured_cpu_s =
      cpu_sim.measure_app_seconds(app, options.measurement_runs);
  trace.close(span);

  const gpumodel::ExploreStats& stats = explorer.stats();
  counters.variants += stats.variants;
  counters.projection_hits += stats.projection_hits;
  counters.projection_misses += stats.projection_misses;

  report.app_name = workload.name() + " " + size.label;
  return report;
}

}  // namespace

pcie::CalibrationReport calibrate_bus(const hw::MachineSpec& machine,
                                      const ProjectionOptions& options,
                                      std::uint64_t seed) {
  auto measure = [&] {
    pcie::SimulatedBus bus(machine.pcie, seed);
    pcie::TransferCalibrator calibrator(options.calibration);
    return calibrator.calibrate_robust(bus, options.memory, &machine.pcie);
  };
  if (!options.use_calibration_cache) return measure();
  const std::string key = pcie::calibration_cache_key(
      machine.pcie, options.calibration, options.memory, seed);
  return pcie::CalibrationCache::instance().get_or_calibrate(key, measure);
}

ProjectionOptions reference_options(ProjectionOptions options) {
  options.use_artifact_caches = false;
  options.use_calibration_cache = false;
  return options;
}

workloads::DataSize resolve_size(
    const workloads::Workload& workload, const std::string& label) {
  if (std::optional<workloads::DataSize> generated =
          parse_generated_label(label))
    return *generated;
  return workloads::find_data_size(workload, label);
}

exec::SweepEngine::JobFn mirror_job_fn(hw::MachineSpec machine,
                                       ProjectionOptions options,
                                       std::uint64_t base_seed) {
  return [machine = std::move(machine), options = std::move(options),
          base_seed](const exec::JobSpec& spec) -> ProjectionReport {
    const workloads::Workload& workload =
        workloads::PaperSuite::instance().find(spec.workload);
    const workloads::DataSize size =
        resolve_size(workload, spec.size_label);
    core::ExperimentRunner runner(job_machine(machine, spec),
                                  job_options(options, spec, base_seed));
    return runner.run(workload, size, spec.iterations);
  };
}

exec::SweepEngine::JobFn traced_job_fn(hw::MachineSpec machine,
                                       ProjectionOptions options,
                                       std::uint64_t base_seed,
                                       TraceStore& store,
                                       LayerCounters& counters) {
  return [machine = std::move(machine), options = std::move(options),
          base_seed, &store,
          &counters](const exec::JobSpec& spec) -> ProjectionReport {
    JobTrace trace(counters.next_id++);
    ProjectionReport report;
    {
      SpanScope job(trace, "core.job");
      const workloads::Workload& workload =
          workloads::PaperSuite::instance().find(spec.workload);
      const workloads::DataSize size =
          resolve_size(workload, spec.size_label);
      report = traced_projection(job_machine(machine, spec), workload, size,
                                 spec.iterations,
                                 job_options(options, spec, base_seed), trace,
                                 counters);
    }
    ++counters.jobs;
    store.append(trace);
    return report;
  };
}

namespace {

/// The spans of the pipeline's layers and the metrics they feed.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"pcie.transfer", "pcie.transfer_us"},
    {"workloads.skeleton", "workloads.skeleton_us"},
    {"dataflow.usage", "dataflow.usage_us"},
    {"gpumodel.explore", "gpumodel.explore_us"},
    {"cpumodel.baseline", "cpumodel.baseline_us"},
    {"sim.wave", "sim.wave_us"},
    {"core.engine", "core.engine_us"},
    {"core.job", "core.self_us"},
};

}  // namespace

std::map<std::string, double> pipeline_layer_values(
    const TraceStore& store, const LayerCounters& counters) {
  std::map<std::string, double> values;
  const double jobs = static_cast<double>(counters.jobs.load());
  if (jobs == 0) return values;
  const std::map<std::string, std::int64_t> self = store.self_ns_by_name();
  const auto self_ns = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const auto& [span, metric] : kLayerSpans)
    values[metric] = self_ns(span) / jobs * 1e-3;
  const double cohort_ns = self_ns("sim.cohort");
  const double events = static_cast<double>(counters.cohort_events.load());
  values["sim.cohort_ms"] = cohort_ns / jobs * 1e-6;
  values["sim.cohort_events_per_job"] = events / jobs;
  values["sim.cohort_ns_per_event"] = events == 0 ? 0.0 : cohort_ns / events;
  values["gpumodel.variants_per_job"] =
      static_cast<double>(counters.variants.load()) / jobs;
  const double hits = static_cast<double>(counters.projection_hits.load());
  const double lookups =
      hits + static_cast<double>(counters.projection_misses.load());
  values["gpumodel.projection_hit_ratio"] = lookups == 0 ? 0.0 : hits / lookups;
  return values;
}

double layer_sum_us(const std::map<std::string, double>& values) {
  const auto value = [&values](const std::string& name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  double sum_us = value("sim.cohort_ms") * 1e3;
  for (const auto& [span, metric] : kLayerSpans) sum_us += value(metric);
  return sum_us;
}

}  // namespace perfbench
